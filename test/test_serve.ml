(* The serve/v1 protocol and the request handler: parsing, idempotency,
   warm-start over the exploration store, and deadline degradation. *)

module J = Obs.Json
module P = Serve.Protocol
module F2 = Paper.Figure2
module V = Variants

(* A five-process pipeline whose loads force a mixed hw/sw optimum
   under the default capacity (sum of sw loads 165 > 100). *)
let model_source =
  {|system t {
  channel A queue
  channel B queue
  channel C queue
  channel D queue
  channel E queue
  process p1 { mode m { latency 1 consume A 1 produce B 1 } }
  process p2 { mode m { latency 1 consume B 1 produce C 1 } }
  process p3 { mode m { latency 1 consume C 1 produce D 1 } }
  process p4 { mode m { latency 1 consume D 1 produce E 1 } }
  process p5 { mode m { latency 1 consume E 1 } }
}
|}

let tech_source =
  {|tech t {
  processor 12
  impl p1 sw 25 hw 30
  impl p2 sw 10 hw 18
  impl p3 sw 55 hw 22
  impl p4 sw 40 hw 20
  impl p5 sw 35 hw 15
}
|}

let roundtrip r =
  match P.request_of_json (P.request_to_json r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* ---------------------------- protocol ---------------------------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Ping };
      { P.id = Some "r1"; deadline_ms = Some 250; jobs = Some 4;
        trace = false; op = P.Stats };
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Shutdown };
      { P.id = None; deadline_ms = None; jobs = None; trace = false;
        op = P.Metrics };
      {
        P.id = Some "r2";
        deadline_ms = None;
        jobs = None;
        trace = true;
        op = P.Synthesize { model = "m"; tech = "t"; capacity = Some 60 };
      };
      {
        P.id = None;
        deadline_ms = Some 1;
        jobs = None;
        trace = false;
        op = P.Pareto { model = "m"; tech = "t"; capacity = None };
      };
      {
        P.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op = P.Pareto { model = "m"; tech = "t"; capacity = Some 0 };
      };
      {
        P.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op =
          P.Simulate
            { model = "m"; until = Some 40; compiled = true; family = false };
      };
      {
        P.id = None;
        deadline_ms = None;
        jobs = None;
        trace = false;
        op =
          P.Simulate
            { model = "m"; until = None; compiled = false; family = true };
      };
    ]
  in
  List.iter (fun r -> if roundtrip r <> r then Alcotest.fail "mismatch") requests;
  let batch =
    { P.id = Some "b"; deadline_ms = None; jobs = None; trace = false;
      op = P.Batch requests }
  in
  if roundtrip batch <> batch then Alcotest.fail "batch mismatch"

let test_protocol_rejects () =
  let reject line why =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error _ -> ()
  in
  reject "not json" "garbage";
  reject {|{"schema":"serve/v2","op":"ping"}|} "wrong schema";
  reject {|{"op":"frobnicate"}|} "unknown op";
  reject {|{"op":"synthesize"}|} "synthesize without model/tech";
  (* no binding meets a negative capacity; 0 admits all-hardware ones *)
  reject {|{"op":"synthesize","model":"m","tech":"t","capacity":-1}|}
    "negative synthesize capacity";
  reject {|{"op":"pareto","model":"m","tech":"t","capacity":-1}|}
    "negative pareto capacity";
  reject
    {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|}
    "nested batch"

let test_status_of_response () =
  Alcotest.(check string) "ok" "ok" (P.status_of_response (P.ok [ ]));
  Alcotest.(check string) "error" "error" (P.status_of_response (P.error "x"));
  Alcotest.(check string) "overloaded" "overloaded"
    (P.status_of_response
       (P.overloaded ~queue_depth:3 ~queue_limit:3 ~retry_after_ms:200 ()));
  Alcotest.(check string) "invalid" "invalid"
    (P.status_of_response (J.Int 3))

let test_overloaded_shape () =
  let r =
    P.overloaded ~id:"r9" ~queue_depth:64 ~queue_limit:64 ~retry_after_ms:3250
      ()
  in
  let get k = Option.bind (J.member k r) J.to_int in
  Alcotest.(check (option int)) "depth" (Some 64) (get "queue_depth");
  Alcotest.(check (option int)) "limit" (Some 64) (get "queue_limit");
  Alcotest.(check (option int)) "retry hint" (Some 3250) (get "retry_after_ms");
  Alcotest.(check (option string)) "id echoed" (Some "r9")
    (Option.bind (J.member "id" r) J.to_string_opt)

(* ---------------------------- handler ----------------------------- *)

let tmp_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spi-serve-test-%d-%d.journal" (Unix.getpid ()) !counter)

let handle ?handler request =
  let t =
    match handler with Some t -> t | None -> Serve.Handler.create ~jobs:1 ()
  in
  Serve.Handler.handle t ~admitted_ns:(Obs.Clock.now_ns ()) ~queue_depth:0
    request

let plain op =
  { P.id = None; deadline_ms = None; jobs = None; trace = false; op }

let test_handler_ping () =
  let r = handle (plain P.Ping) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r)

let test_handler_bad_model () =
  let r =
    handle
      (plain (P.Synthesize { model = "not spi"; tech = tech_source; capacity = None }))
  in
  Alcotest.(check string) "error" "error" (P.status_of_response r)

let test_handler_idempotency () =
  let t = Serve.Handler.create ~jobs:1 () in
  let request = { (plain P.Ping) with P.id = Some "same-key" } in
  let first = handle ~handler:t request in
  let second = handle ~handler:t request in
  Alcotest.(check bool) "first not cached" true
    (J.member "cached" first = None);
  Alcotest.(check (option bool)) "second replayed" (Some true)
    (Option.bind (J.member "cached" second) J.to_bool)

let cost_of response =
  match J.member "cost" response with
  | Some c -> J.to_string c
  | None -> Alcotest.failf "no cost in %s" (J.to_string response)

(* The parts of a synthesize response that must not depend on the
   store: cost, binding and worst load. *)
let answer_of response =
  String.concat " | "
    (List.map
       (fun field ->
         match J.member field response with
         | Some v -> J.to_string v
         | None -> Alcotest.failf "no %s in %s" field (J.to_string response))
       [ "cost"; "binding"; "worst_load" ])

let test_handler_warm_equals_cold () =
  let path = tmp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let synth =
        plain
          (P.Synthesize
             { model = model_source; tech = tech_source; capacity = None })
      in
      (* cold: no store at all *)
      let cold = handle (plain synth.P.op) in
      if P.status_of_response cold <> "ok" then
        Alcotest.failf "cold failed: %s" (J.to_string cold);
      (* populate the store, then reopen it as a fresh daemon would *)
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      let t = Serve.Handler.create ~store ~jobs:1 () in
      let first = handle ~handler:t synth in
      Alcotest.(check (option bool)) "first run is cold" (Some false)
        (Option.bind (J.member "warm" first) J.to_bool);
      Store.Keyed.close store;
      let store, tail = Store.Keyed.open_store ~fsync:false path in
      Alcotest.(check bool) "clean reopen" true (tail = None);
      let t = Serve.Handler.create ~store ~jobs:1 () in
      let warm = handle ~handler:t synth in
      Store.Keyed.close store;
      Alcotest.(check (option bool)) "second run is warm" (Some true)
        (Option.bind (J.member "warm" warm) J.to_bool);
      (* the acceptance differential: warm answers byte-identical to
         cold — cost, binding and worst load *)
      Alcotest.(check string) "warm cost == cold cost" (cost_of cold)
        (cost_of warm);
      Alcotest.(check string) "warm answer == cold answer" (answer_of cold)
        (answer_of warm);
      Alcotest.(check string) "store-first answer == cold answer"
        (answer_of cold) (answer_of first))

(* Three optima of cost 15 (processor 5 + one of p1..p3 in hardware at
   area 10): software loads sum to 130, and moving any one 40-load
   process to hardware fits the rest under 100.  The canonical answer
   keeps p1 and p2 in software and moves p3. *)
let tie_tech_source =
  {|tech t {
  processor 5
  impl p1 sw 40 hw 10
  impl p2 sw 40 hw 10
  impl p3 sw 40 hw 10
  impl p4 sw 5 hw 50
  impl p5 sw 5 hw 50
}
|}

(* A journaled record holding a different optimum of equal cost — e.g.
   written by an older daemon — must not change the answer: the warm
   response is byte-identical to the cold one. *)
let test_handler_warm_other_optimum () =
  let path = tmp_store () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let synth =
        plain
          (P.Synthesize
             { model = model_source; tech = tie_tech_source; capacity = None })
      in
      let cold = handle synth in
      Alcotest.(check (option string)) "canonical cold binding"
        (Some {|[["p1","sw"],["p2","sw"],["p3","hw"],["p4","sw"],["p5","sw"]]|})
        (Option.map J.to_string (J.member "binding" cold));
      let tech = Lang.Tech_file.of_string tie_tech_source in
      let apps = Synth.App.of_system (Lang.Parser.system_of_string model_source) in
      let other =
        Synth.Binding.of_list
          (List.map
             (fun (p, i) -> (Spi.Ids.Process_id.of_string p, i))
             [ ("p1", Synth.Binding.Hw); ("p2", Synth.Binding.Sw);
               ("p3", Synth.Binding.Sw); ("p4", Synth.Binding.Sw);
               ("p5", Synth.Binding.Sw) ])
      in
      let store, _ = Store.Keyed.open_store ~fsync:false path in
      (match Synth.Explore.solve tech apps with
      | Ok s ->
        Synth.Bound_store.remember store tech apps
          { s with Synth.Explore.binding = other }
      | Error _ -> Alcotest.fail "feasible instance");
      let t = Serve.Handler.create ~store ~jobs:1 () in
      let warm = handle ~handler:t synth in
      Store.Keyed.close store;
      Alcotest.(check (option bool)) "warm from the other optimum" (Some true)
        (Option.bind (J.member "warm" warm) J.to_bool);
      Alcotest.(check string) "warm answer == cold answer" (answer_of cold)
        (answer_of warm))

let test_handler_batch () =
  let t = Serve.Handler.create ~jobs:2 () in
  let batch =
    plain
      (P.Batch
         [
           plain P.Ping;
           plain
             (P.Synthesize
                { model = model_source; tech = tech_source; capacity = None });
           plain
             (P.Simulate
                {
                  model = model_source;
                  until = Some 30;
                  compiled = false;
                  family = false;
                });
         ])
  in
  let r = handle ~handler:t batch in
  Alcotest.(check string) "batch ok" "ok" (P.status_of_response r);
  match J.member "results" r with
  | Some (J.List items) ->
    Alcotest.(check int) "three results" 3 (List.length items);
    List.iter
      (fun item ->
        Alcotest.(check string) "item ok" "ok" (P.status_of_response item))
      items
  | _ -> Alcotest.fail "no results array"

let test_handler_shutdown () =
  let t = Serve.Handler.create ~jobs:1 () in
  Alcotest.(check bool) "not requested" false (Serve.Handler.shutdown_requested t);
  let r = handle ~handler:t (plain P.Shutdown) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check bool) "requested" true (Serve.Handler.shutdown_requested t)

(* ------------------------- deadline path -------------------------- *)

(* A workload big enough that the search cannot finish instantly: an
   expired deadline must still return the greedy incumbent, marked
   degraded.  (The parallel path seeds the incumbent from greedy
   completions before the first deadline poll.) *)
let big_workload () =
  let system =
    V.Generator.generate
      { V.Generator.default with sites = 3; variants_per_site = 3; seed = 9 }
  in
  let apps = Synth.App.of_system system in
  let pids =
    Spi.Ids.Process_id.Set.elements (Synth.App.union_procs apps)
  in
  let weight pid = 1 + ((V.Generator.process_weight pid * 31) mod 100) in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.map
         (fun pid ->
           let w = weight pid in
           (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
         pids)
  in
  (tech, apps)

let test_deadline_returns_degraded_incumbent () =
  let tech, apps = big_workload () in
  match
    Synth.Explore.solve ~jobs:2 ~capacity:140
      ~deadline_ns:(Obs.Clock.now_ns ()) tech apps
  with
  | Ok s ->
    Alcotest.(check bool) "marked degraded" true s.Synth.Explore.degraded;
    Alcotest.(check bool) "carries a real binding" true
      (Synth.Binding.processes s.Synth.Explore.binding <> [])
  | Error Synth.Explore.Deadline_no_incumbent ->
    Alcotest.fail "expected the greedy incumbent, got no incumbent"
  | Error d ->
    Alcotest.failf "unexpected diagnostic: %s"
      (Format.asprintf "%a" Synth.Explore.pp_diagnostic d)

let test_no_deadline_not_degraded () =
  match Synth.Explore.solve ~jobs:2 F2.table1_tech [ F2.app1; F2.app2 ] with
  | Ok s ->
    Alcotest.(check bool) "not degraded" false s.Synth.Explore.degraded
  | Error _ -> Alcotest.fail "solve failed"

(* [pareto] under a deadline returns the frontier proved in time: a
   prefix, possibly empty, of the full one, marked degraded.  An
   expired deadline proves nothing; without one the frontier is
   complete and not degraded. *)
let test_pareto_deadline_prefix () =
  let tech, apps = big_workload () in
  let frontier ?deadline_ns () =
    Synth.Pareto.frontier ~jobs:2 ~capacity:140 ?deadline_ns tech apps
  in
  let full = frontier () in
  Alcotest.(check bool) "no deadline, not degraded" false
    full.Synth.Pareto.degraded;
  let full_answer = Harness.pareto_answer full in
  let rec is_prefix = function
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
    | _ :: _, [] -> false
  in
  List.iter
    (fun budget_ns ->
      let f = frontier ~deadline_ns:(Obs.Clock.now_ns () + budget_ns) () in
      let answer = Harness.pareto_answer f in
      if budget_ns = 0 then
        Alcotest.(check bool) "expired deadline, degraded" true
          f.Synth.Pareto.degraded;
      if f.Synth.Pareto.degraded then
        Alcotest.(check bool) "a prefix of the full frontier" true
          (is_prefix (answer, full_answer))
      else
        Alcotest.(check bool) "in time: the full frontier" true
          (answer = full_answer))
    [ 0; 1_000_000; 10_000_000 ]

let test_handler_pareto_degraded () =
  let pareto deadline_ms =
    handle
      {
        (plain
           (P.Pareto { model = model_source; tech = tech_source; capacity = None }))
        with
        P.deadline_ms;
      }
  in
  let points r =
    Option.map List.length (Option.bind (J.member "points" r) J.to_list)
  in
  let degraded r = Option.bind (J.member "degraded" r) J.to_bool in
  let r = pareto None in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check (option bool)) "not degraded" (Some false) (degraded r);
  Alcotest.(check bool) "points" true (Option.value ~default:0 (points r) > 0);
  let r = pareto (Some 0) in
  Alcotest.(check string) "ok when expired" "ok" (P.status_of_response r);
  Alcotest.(check (option bool)) "degraded" (Some true) (degraded r);
  Alcotest.(check (option int)) "nothing proved" (Some 0) (points r)

(* ---------------------------- client ------------------------------ *)

let test_client_fresh_ids () =
  let a = Serve.Client.fresh_id () in
  let b = Serve.Client.fresh_id () in
  Alcotest.(check bool) "distinct" true (a <> b)

let test_client_unreachable () =
  match
    Serve.Client.request ~timeout_s:0.2 ~attempts:2 ~base_backoff_s:0.01
      ~seed:1 ~socket:"/nonexistent/spi-serve.sock" (plain P.Ping)
  with
  | Serve.Client.Unreachable _ -> ()
  | Serve.Client.Response _ | Serve.Client.Overloaded _ ->
    Alcotest.fail "expected unreachable"


(* The retry-after hint comes from an untrusted daemon: however large
   the hint (or however deep the exponential backoff), no single wait
   may exceed max_backoff_s before jitter (jitter tops out at 1.5). *)
let test_backoff_clamped =
  QCheck.Test.make ~count:200 ~name:"backoff delay is clamped to the ceiling"
    QCheck.(
      quad (int_range 0 20) (float_range 0.5 1.5) (float_range 0.01 2.)
        (option (float_range 0. 1e6)))
    (fun (attempt, jitter, max_backoff_s, hint) ->
      let d =
        Serve.Client.backoff_delay ~base_backoff_s:0.25 ~max_backoff_s ~jitter
          ~attempt hint
      in
      d >= 0. && d <= (max_backoff_s *. jitter) +. 1e-9)

let test_backoff_shape () =
  let delay ?hint attempt =
    Serve.Client.backoff_delay ~base_backoff_s:0.25 ~max_backoff_s:5.
      ~jitter:1. ~attempt hint
  in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.25 (delay 0);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles twice" 1. (delay 2);
  Alcotest.(check (float 1e-9)) "hint raises a small backoff" 2.
    (delay ~hint:2. 0);
  Alcotest.(check (float 1e-9)) "huge hint clamps to the ceiling" 5.
    (delay ~hint:3600. 0);
  Alcotest.(check (float 1e-9)) "deep attempt clamps to the ceiling" 5.
    (delay 16)

(* ------------------------- simulate ------------------------------- *)

let run_fields response =
  match Option.bind (J.member "runs" response) J.to_list with
  | Some runs -> runs
  | None -> Alcotest.fail "response has no runs"

(* Figure 2's shape with initial tokens so the run actually fires: the
   feeder drains CX into the site's input port, both variants can
   activate, and the family pass must split g1 from g2. *)
let family_model_source =
  {|system fam {
  channel CX queue initial 2
  channel CA queue
  channel CB queue
  channel CY queue
  process PA {
    mode PA.default { latency 3 consume CX 1 produce CA 1 }
    rule PA.auto0 when num CX >= 1 -> PA.default
    }
  process PB {
    mode PB.default { latency 2 consume CB 1 produce CY 1 }
    rule PB.auto0 when num CB >= 1 -> PB.default
    }
  interface iface1 {
    port in i = CA
    port out o = CB
    cluster g1 {
      process x1 {
        mode x1.default { latency 4 consume i 1 produce o 1 }
        rule x1.auto0 when num i >= 1 -> x1.default
        }
      }
    cluster g2 {
      channel k1 queue
      process y1 {
        mode y1.default { latency 2 consume i 1 produce k1 1 }
        rule y1.auto0 when num i >= 1 -> y1.default
        }
      process y2 {
        mode y2.default { latency 5 consume k1 1 produce o 1 }
        rule y2.auto0 when num k1 >= 1 -> y2.default
        }
      }
    }
  }
|}

(* [compiled] is a legacy wire field: every simulate runs on cached
   compiled plans, so a request answers the same — response bytes and
   plan-cache traffic — whether the field says true, false or is
   absent.  [model] is JSON-escaped into a raw request line so the
   absent case really lacks the field. *)
let wire_forms ~model ~until ~family =
  let base =
    Printf.sprintf {|"op": "simulate", "model": %s, "until": %d, "family": %b|}
      (J.to_string (J.String model)) until family
  in
  List.map
    (fun (label, extra) ->
      match P.parse_request (Printf.sprintf "{%s%s}" base extra) with
      | Ok r -> (label, r)
      | Error e -> Alcotest.failf "%s request rejected: %s" label e)
    [
      ("compiled true", {|, "compiled": true|});
      ("compiled false", {|, "compiled": false|});
      ("compiled absent", "");
    ]

let test_handler_simulate_compiled () =
  let hits = Obs.Registry.counter "serve.plan_cache_hits" in
  let misses = Obs.Registry.counter "serve.plan_cache_misses" in
  (* a fresh handler per form: two identical requests each, so each
     form shows its own miss-then-hit *)
  let answer request =
    let t = Serve.Handler.create ~jobs:1 () in
    let h0 = Obs.Metric.value hits and m0 = Obs.Metric.value misses in
    let first = handle ~handler:t request in
    let second = handle ~handler:t request in
    Alcotest.(check string) "ok" "ok" (P.status_of_response first);
    Alcotest.(check string) "repeat request is stable" (J.to_string first)
      (J.to_string second);
    Alcotest.(check bool) "no compiled echo" true
      (J.member "compiled" first = None);
    ( J.to_string first,
      Obs.Metric.value misses - m0,
      Obs.Metric.value hits - h0 )
  in
  List.iter
    (fun (model, until, family) ->
      match wire_forms ~model ~until ~family with
      | [] -> assert false
      | (_, reference) :: others ->
        let expected = answer reference in
        let _, m, h = expected in
        Alcotest.(check (pair int int)) "one miss, then one hit" (1, 1) (m, h);
        List.iter
          (fun (label, request) ->
            Alcotest.(check (triple string int int))
              (Printf.sprintf "%s (family=%b)" label family)
              expected (answer request))
          others)
    [ (model_source, 50, false); (family_model_source, 500, true) ]

let test_handler_simulate_family () =
  let t = Serve.Handler.create ~jobs:1 () in
  let simulate family =
    handle ~handler:t
      (plain
         (P.Simulate
            {
              model = family_model_source;
              until = Some 500;
              compiled = false;
              family;
            }))
  in
  let r = simulate true in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check (option bool)) "family tagged" (Some true)
    (Option.bind (J.member "family" r) J.to_bool);
  Alcotest.(check (option int)) "two configurations" (Some 2)
    (Option.bind (J.member "configurations" r) J.to_int);
  Alcotest.(check (option int)) "split into two subfamilies" (Some 2)
    (Option.bind (J.member "subfamilies" r) J.to_int);
  Alcotest.(check int) "one run per configuration" 2
    (List.length (run_fields r));
  (* the flat and family paths disagree on nothing but sharing: each
     configuration's end_time matches a per-configuration simulate *)
  let end_times r =
    run_fields r
    |> List.filter_map (fun run -> Option.bind (J.member "end_time" run) J.to_int)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "family end times = flat end times"
    (end_times (simulate false)) (end_times r)

(* A client's jobs override is clamped to what the daemon allows, so an
   absurd pool size answers like a sane one instead of holding the
   single-threaded event loop. *)
let test_handler_jobs_clamped () =
  let t = Serve.Handler.create ~jobs:1 () in
  let synth jobs =
    handle ~handler:t
      {
        (plain
           (P.Synthesize
              { model = model_source; tech = tech_source; capacity = None }))
        with
        P.jobs = Some jobs;
      }
  in
  let sane = synth 1 in
  let huge = synth 100_000 in
  Alcotest.(check string) "ok" "ok" (P.status_of_response huge);
  Alcotest.(check string) "jobs=100000 cost == jobs=1 cost" (cost_of sane)
    (cost_of huge)

(* --------------------------- telemetry ---------------------------- *)

let get_path doc path =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some doc) path

let test_handler_metrics_verb () =
  let series = Obs.Series.create ~windows:4 () in
  let t = Serve.Handler.create ~series ~jobs:1 () in
  Obs.Series.sample series;
  ignore (handle ~handler:t (plain P.Ping));
  Unix.sleepf 0.005;
  Obs.Series.sample series;
  let r = handle ~handler:t (plain P.Metrics) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  Alcotest.(check (option string)) "snapshot is obs/v1" (Some "obs/v1")
    (Option.bind (get_path r [ "snapshot"; "schema" ]) J.to_string_opt);
  (match get_path r [ "snapshot"; "counters"; "serve.requests" ] with
  | Some (J.Int n) when n > 0 -> ()
  | _ -> Alcotest.fail "snapshot misses the request counter");
  (match Option.bind (get_path r [ "exposition" ]) J.to_string_opt with
  | Some text ->
    let has needle =
      let nl = String.length needle and tl = String.length text in
      let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "exposition has TYPE headers" true
      (has "# TYPE serve_requests counter")
  | None -> Alcotest.fail "no exposition");
  Alcotest.(check (option string)) "series is series/v1" (Some "series/v1")
    (Option.bind (get_path r [ "series"; "schema" ]) J.to_string_opt);
  Alcotest.(check (option int)) "both windows retained" (Some 2)
    (Option.bind (get_path r [ "series"; "windows" ]) J.to_int);
  (* without a series the verb still answers, minus that member *)
  let bare = handle (plain P.Metrics) in
  Alcotest.(check string) "ok without series" "ok"
    (P.status_of_response bare);
  Alcotest.(check bool) "no series member" true
    (J.member "series" bare = None)

let test_handler_trace_spans () =
  let t = Serve.Handler.create ~jobs:2 () in
  let synth op = { (plain op) with P.id = Some "tr-1"; trace = true } in
  let op =
    P.Synthesize { model = model_source; tech = tech_source; capacity = None }
  in
  let r = handle ~handler:t (synth op) in
  Alcotest.(check string) "ok" "ok" (P.status_of_response r);
  let trace =
    match J.member "trace" r with
    | Some tr -> tr
    | None -> Alcotest.fail "trace requested but absent"
  in
  Alcotest.(check (option string)) "rtrace/v1" (Some "rtrace/v1")
    (Option.bind (J.member "schema" trace) J.to_string_opt);
  Alcotest.(check (option string)) "rid is the request id" (Some "tr-1")
    (Option.bind (J.member "rid" trace) J.to_string_opt);
  let spans =
    match Option.bind (J.member "spans" trace) J.to_list with
    | Some spans -> spans
    | None -> Alcotest.fail "no spans"
  in
  let name s = Option.bind (J.member "name" s) J.to_string_opt in
  let root =
    match List.find_opt (fun s -> name s = Some "serve.request") spans with
    | Some s -> s
    | None -> Alcotest.fail "no serve.request root span"
  in
  Alcotest.(check (option int)) "root parents to 0" (Some 0)
    (Option.bind (J.member "parent" root) J.to_int);
  Alcotest.(check bool) "explore landed in the request tree" true
    (List.exists (fun s -> name s = Some "explore.solve_ns") spans);
  (* replays serve the cached response: no stale trace attached *)
  let replay = handle ~handler:t (synth op) in
  Alcotest.(check (option bool)) "replayed" (Some true)
    (Option.bind (J.member "cached" replay) J.to_bool);
  Alcotest.(check bool) "no trace on a replay" true
    (J.member "trace" replay = None);
  (* and without the flag, no trace member at all *)
  let quiet = handle ~handler:t (plain P.Ping) in
  Alcotest.(check bool) "opt-in only" true (J.member "trace" quiet = None)

(* Metrics polls against a live batch workload: the shared registry,
   exposition and series are the concurrency surface (handlers are
   per-connection state, so each side gets its own). *)
let test_metrics_under_load () =
  let series = Obs.Series.create ~windows:8 () in
  let load = Serve.Handler.create ~jobs:2 () in
  let poll = Serve.Handler.create ~series ~jobs:1 () in
  let stop = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        let batch =
          plain
            (P.Batch
               [
                 plain
                   (P.Synthesize
                      {
                        model = model_source;
                        tech = tech_source;
                        capacity = None;
                      });
                 plain
                   (P.Simulate
                      {
                        model = model_source;
                        until = Some 30;
                        compiled = true;
                        family = false;
                      });
               ])
        in
        while not (Atomic.get stop) do
          let r = handle ~handler:load batch in
          if P.status_of_response r <> "ok" then
            Atomic.set stop true (* surface the failure to the checks below *)
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join worker)
    (fun () ->
      for _ = 1 to 10 do
        Obs.Series.sample series;
        let r = handle ~handler:poll (plain P.Metrics) in
        Alcotest.(check string) "poll ok" "ok" (P.status_of_response r);
        (* well-formed under concurrent writers: the document serializes
           and parses back, and both payloads carry their schema tags *)
        (match J.parse (J.to_string ~minify:true r) with
        | Error e -> Alcotest.failf "snapshot does not round-trip: %s" e
        | Ok _ -> ());
        Alcotest.(check (option string)) "obs/v1" (Some "obs/v1")
          (Option.bind (get_path r [ "snapshot"; "schema" ]) J.to_string_opt);
        Alcotest.(check (option string)) "series/v1" (Some "series/v1")
          (Option.bind (get_path r [ "series"; "schema" ]) J.to_string_opt)
      done;
      Alcotest.(check bool) "load kept running" false (Atomic.get stop))

let test_client_retry_logged () =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink (Some (Obs.Log.channel_sink stderr)))
    (fun () ->
      (match
         Serve.Client.request ~timeout_s:0.2 ~attempts:2 ~base_backoff_s:0.01
           ~seed:1 ~socket:"/nonexistent/spi-serve.sock"
           { (plain P.Ping) with P.id = Some "retry-rid" }
       with
      | Serve.Client.Unreachable _ -> ()
      | Serve.Client.Response _ | Serve.Client.Overloaded _ ->
        Alcotest.fail "expected unreachable");
      let retries =
        List.rev !lines
        |> List.filter_map (fun line ->
               match J.parse line with
               | Ok doc
                 when Option.bind (J.member "event" doc) J.to_string_opt
                      = Some "client.retry" ->
                 Some doc
               | Ok _ | Error _ -> None)
      in
      Alcotest.(check int) "one line per failed attempt" 2
        (List.length retries);
      let first = List.hd retries in
      let field k = get_path first [ "fields"; k ] in
      Alcotest.(check (option string)) "warn level" (Some "warn")
        (Option.bind (J.member "level" first) J.to_string_opt);
      Alcotest.(check (option string)) "idempotency key" (Some "retry-rid")
        (Option.bind (field "id") J.to_string_opt);
      Alcotest.(check (option int)) "attempt number" (Some 1)
        (Option.bind (field "attempt") J.to_int);
      Alcotest.(check (option int)) "attempt budget" (Some 2)
        (Option.bind (field "of") J.to_int);
      (match Option.bind (field "backoff_ms") J.to_int with
      | Some ms when ms >= 0 -> ()
      | _ -> Alcotest.fail "no backoff_ms field");
      match Option.bind (field "reason") J.to_string_opt with
      | Some reason when reason <> "" -> ()
      | _ -> Alcotest.fail "no reason field")

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "protocol rejects bad requests" `Quick
        test_protocol_rejects;
      Alcotest.test_case "status_of_response" `Quick test_status_of_response;
      Alcotest.test_case "overloaded response shape" `Quick
        test_overloaded_shape;
      Alcotest.test_case "handler ping" `Quick test_handler_ping;
      Alcotest.test_case "handler rejects bad model" `Quick
        test_handler_bad_model;
      Alcotest.test_case "handler idempotency replay" `Quick
        test_handler_idempotency;
      Alcotest.test_case "handler warm equals cold" `Quick
        test_handler_warm_equals_cold;
      Alcotest.test_case "handler warm from another optimum" `Quick
        test_handler_warm_other_optimum;
      Alcotest.test_case "handler batch fan-out" `Quick test_handler_batch;
      Alcotest.test_case "handler shutdown request" `Quick
        test_handler_shutdown;
      Alcotest.test_case "expired deadline returns degraded incumbent" `Quick
        test_deadline_returns_degraded_incumbent;
      Alcotest.test_case "no deadline, no degradation" `Quick
        test_no_deadline_not_degraded;
      Alcotest.test_case "pareto deadline keeps a frontier prefix" `Quick
        test_pareto_deadline_prefix;
      Alcotest.test_case "handler pareto marks degraded" `Quick
        test_handler_pareto_degraded;
      Alcotest.test_case "client ids distinct" `Quick test_client_fresh_ids;
      QCheck_alcotest.to_alcotest test_backoff_clamped;
      Alcotest.test_case "backoff shape and clamp" `Quick test_backoff_shape;
      Alcotest.test_case "handler compiled simulate" `Quick
        test_handler_simulate_compiled;
      Alcotest.test_case "handler family simulate" `Quick
        test_handler_simulate_family;
      Alcotest.test_case "handler clamps the jobs override" `Quick
        test_handler_jobs_clamped;
      Alcotest.test_case "client reports unreachable" `Quick
        test_client_unreachable;
      Alcotest.test_case "metrics verb payload" `Quick
        test_handler_metrics_verb;
      Alcotest.test_case "trace spans in the response" `Quick
        test_handler_trace_spans;
      Alcotest.test_case "metrics polls under batch load" `Quick
        test_metrics_under_load;
      Alcotest.test_case "client retries are logged" `Quick
        test_client_retry_logged;
    ] )

(* The end-to-end run: the daemon as its own process, one client process
   in a closed loop, every answer checked afterwards, and the daemon's
   own counters cross-checked against the work its responses report. *)

module J = Obs.Json
module W = Workload
module S = Stat

(* Set-up is timed over several spawns, each on a fresh copy of the
   prefilled journal: some before the measured phase, the measured
   daemon itself, and some after it, so the median spans the run rather
   than one moment of the host. *)
let spawns_before = 3
let spawns_after = 3

let timed_spawn ~exe ~dir ~prefill =
  let store = Filename.concat dir "setup-journal" in
  W.copy_file prefill store;
  let d, c, ns = Client.start ~exe ~dir ~store in
  Client.stop d c;
  S.ms_of_ns ns /. 1000.

let counter snap name =
  match Option.bind (J.member "counters" snap) (J.member name) with
  | Some j -> Option.value ~default:0 (J.to_int j)
  | None -> 0

let histogram snap name field =
  match
    Option.bind
      (Option.bind (J.member "histograms" snap) (J.member name))
      (J.member field)
  with
  | Some j -> Option.value ~default:0 (J.to_int j)
  | None -> 0

let snapshot_of metrics_response =
  match J.member "snapshot" metrics_response with
  | Some s -> s
  | None -> failwith "metrics response without a snapshot"

(* The daemon's family-plan cache is a 64-entry FIFO keyed by
   [Sim.Family_compiled.plan_key]: [fifo_find] applies the same policy,
   so replaying the keys a client sent predicts its hits and misses
   exactly.  [make] runs on a miss; the flag says whether it was a hit. *)
let plan_cache_limit = 64

let fifo_find table order key make =
  match Hashtbl.find_opt table key with
  | Some v -> (v, true)
  | None ->
    let v = make () in
    if Queue.length order >= plan_cache_limit then
      Hashtbl.remove table (Queue.pop order);
    Queue.push key order;
    Hashtbl.replace table key v;
    (v, false)

let fifo_misses keys =
  let table = Hashtbl.create 97 and order = Queue.create () in
  List.length (List.filter (fun k -> not (snd (fifo_find table order k Fun.id))) keys)

type checked = {
  wrong : (int * string) list;  (** request index, reason *)
  counts : Check.counts list;  (** per answer that checked out, in order *)
}

let check_all (sent : Client.sent list) =
  let results =
    List.map (fun (s : Client.sent) -> (s, Check.check s.request.W.expect s.response)) sent
  in
  {
    wrong =
      List.filter_map
        (fun ((s : Client.sent), r) ->
          match r with Error e -> Some (s.request.W.index, e) | Ok _ -> None)
        results;
    counts = List.filter_map (fun (_, r) -> Result.to_option r) results;
  }

(* What the daemon's counters must read after [sent]: work counts come
   from the checked responses, store appends from the problem shape
   (one problem record plus one per application, per answer), plan
   cache traffic from the FIFO model. *)
let expected_counters kind (sent : Client.sent list) (counts : Check.counts list)
    ~plan_keys =
  let total f = List.fold_left (fun a c -> a + f c) 0 counts in
  let explore =
    [
      ("explore.nodes_expanded", total (fun (c : Check.counts) -> c.explored));
      ("explore.pruned", total (fun (c : Check.counts) -> c.pruned));
    ]
  in
  match kind with
  | W.Synth_stream | W.Large_model ->
    explore
    @ [
        ("store.journal_appends", total (fun (c : Check.counts) -> 1 + c.configurations));
        ("serve.plan_cache_hits", 0);
        ("serve.plan_cache_misses", 0);
        ("sim.family.runs", 0);
      ]
  | W.Sim_family ->
    let n = List.length sent in
    let misses =
      fifo_misses (List.map (fun (s : Client.sent) -> plan_keys s.request.W.problem) sent)
    in
    explore
    @ [
        ("store.journal_appends", 0);
        ("serve.plan_cache_hits", n - misses);
        ("serve.plan_cache_misses", misses);
        ("sim.family.compiles", misses);
        ("sim.family.runs", n);
        ("sim.family.configs", total (fun (c : Check.counts) -> c.configurations));
        ("sim.family.splits", total (fun (c : Check.counts) -> c.splits));
        ("sim.family.subfamilies", total (fun (c : Check.counts) -> c.subfamilies));
        ("sim.family.shared_firings", total (fun (c : Check.counts) -> c.shared_firings));
      ]

let cross_check ~expected snap =
  List.filter_map
    (fun (name, want) ->
      let got = counter snap name in
      if got = want then None
      else Some (Printf.sprintf "daemon counter %s = %d, expected %d" name got want))
    expected

(* Every line the daemon dequeued: the readiness ping, the work, the
   probe's pings and the metrics request itself. *)
let queue_waits_mismatch snap ~work ~pings =
  let want = 1 + work + pings + 1 in
  let got = histogram snap "serve.queue_wait_ns" "count" in
  if got = want then []
  else [ Printf.sprintf "daemon dequeued %d lines, the client sent %d" got want ]

(* The daemon's peak RSS is read after a fixed number of responses (or
   at the end of a shorter run): the store keeps every record in memory,
   so the peak at the end would grow with throughput and read a faster
   daemon as a memory regression. *)
let rss_after = function
  | W.Synth_stream | W.Sim_family -> 1000
  | W.Large_model -> 60

let run ~exe ~dir ~kind ~seed ~seconds =
  let w = W.make kind seed in
  let prefill = Filename.concat dir "prefill" in
  W.write_prefill w prefill;
  let spawns k = List.init k (fun _ -> timed_spawn ~exe ~dir ~prefill) in
  let before = spawns spawns_before in
  let store = Filename.concat dir "journal" in
  W.copy_file prefill store;
  let d, work, setup_ns = Client.start ~exe ~dir ~store in
  let probe = Client.connect d in
  let cpu0 = Client.cpu_ms d in
  let rss = ref None in
  let loop =
    Client.run ~seconds ~next:w.W.next ~work ~probe
      ~at:(rss_after kind, fun () -> rss := Some (Client.peak_rss_mb d))
      ()
  in
  let cpu1 = Client.cpu_ms d in
  let rss = match !rss with Some mb -> mb | None -> Client.peak_rss_mb d in
  let snap = snapshot_of (Client.expect_ok "metrics" (Client.call work Client.metrics_line)) in
  Client.close probe;
  Client.stop d work;
  let setup_s =
    S.median ((S.ms_of_ns setup_ns /. 1000.) :: (before @ spawns spawns_after))
  in
  (* everything below is outside the timed phase *)
  let checked = check_all loop.Client.sent in
  let mismatches =
    if checked.wrong <> [] then []
    else
      cross_check snap
        ~expected:
          (expected_counters kind loop.Client.sent checked.counts ~plan_keys:w.W.plan_key)
      @ queue_waits_mismatch snap ~work:(List.length loop.Client.sent)
          ~pings:(List.length loop.Client.pings)
  in
  let ok = List.length checked.counts in
  let attempted = List.length loop.Client.sent + loop.Client.unanswered in
  let failed = List.length checked.wrong + loop.Client.unanswered in
  let latencies =
    List.map (fun (s : Client.sent) -> S.ms_of_ns s.Client.latency_ns) loop.Client.sent
  in
  let pings = List.map S.ms_of_ns loop.Client.pings in
  let wall_s = float_of_int loop.Client.wall_ns /. 1e9 in
  let metrics =
    [
      S.metric "setup_s" "s" setup_s;
      S.metric "throughput_rps" "req/s" (float_of_int ok /. wall_s);
      S.metric "latency_p50_ms" "ms" (S.percentile 0.5 latencies);
      S.metric "latency_p90_ms" "ms" (S.percentile 0.9 latencies);
      S.metric "latency_p99_ms" "ms" (S.percentile 0.99 latencies);
      S.metric "control_p50_ms" "ms" (S.percentile 0.5 pings);
      S.metric "control_p99_ms" "ms" (S.percentile 0.99 pings);
      S.metric "ok_ratio" "ratio" (S.ratio ok attempted);
      S.metric "daemon_cpu_ms_per_req" "ms"
        ((cpu1 -. cpu0) /. float_of_int (max 1 attempted));
      S.metric "daemon_rss_mb" "MB" rss;
    ]
  in
  List.iter (fun (i, e) -> Printf.printf "wrong answer to request %d: %s\n" i e) checked.wrong;
  List.iter print_endline mismatches;
  S.print_table
    (Printf.sprintf "%s seed %d: %d requests in %.2f s, %d pings, fail_rate %.4f"
       (W.name kind) seed attempted wall_s (List.length pings)
       (S.ratio failed attempted))
    metrics;
  (metrics, attempted, failed, mismatches = [] && failed = 0)

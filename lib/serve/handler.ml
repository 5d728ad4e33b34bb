module J = Obs.Json
module P = Protocol
module V = Variants

let m_requests = Obs.Registry.counter "serve.requests"
let m_errors = Obs.Registry.counter "serve.request_errors"
let m_cache_replays = Obs.Registry.counter "serve.idempotent_replays"
let m_synth_warm = Obs.Registry.histogram "serve.synthesize_warm_ns"
let m_synth_cold = Obs.Registry.histogram "serve.synthesize_cold_ns"
let m_plan_hits = Obs.Registry.counter "serve.plan_cache_hits"
let m_plan_misses = Obs.Registry.counter "serve.plan_cache_misses"
let m_request_ns = Obs.Registry.histogram "serve.request_ns"

(* Idempotency: a bounded last-N map.  Entries are evicted FIFO — the
   cache covers the retry window of a flaky client, not history. *)
let cache_limit = 1024

(* Compiled plans are closures over the model, so unlike Bound_store
   they cannot persist in the journal; the cache warms in-memory across
   requests instead, keyed by the same Canonical digest
   (Sim.Compile.plan_key) a persistent store would use.  Bounded FIFO:
   a daemon serving many distinct models must not grow without limit. *)
let plan_cache_limit = 64

type t = {
  store : Store.Keyed.t option;
  default_deadline_ms : int option;
  jobs : int;
  cache : (string, J.t) Hashtbl.t;
  cache_order : string Queue.t;
  plans : (string, Sim.Compile.plan) Hashtbl.t;
  plan_order : string Queue.t;
  fplans : (string, Sim.Family_compiled.plan) Hashtbl.t;
  fplan_order : string Queue.t;
  plan_lock : Mutex.t;
  series : Obs.Series.t option;
  on_trace : (Obs.Rtrace.t -> unit) option;
  mutable rid_seq : int;
  mutable shutdown : bool;
}

let create ?store ?default_deadline_ms ?series ?on_trace ~jobs () =
  {
    store;
    default_deadline_ms;
    jobs;
    cache = Hashtbl.create 64;
    cache_order = Queue.create ();
    plans = Hashtbl.create 16;
    plan_order = Queue.create ();
    fplans = Hashtbl.create 16;
    fplan_order = Queue.create ();
    plan_lock = Mutex.create ();
    series;
    on_trace;
    rid_seq = 0;
    shutdown = false;
  }

let shutdown_requested t = t.shutdown
let store t = t.store

let cache_put t id response =
  if not (Hashtbl.mem t.cache id) then begin
    if Queue.length t.cache_order >= cache_limit then
      Hashtbl.remove t.cache (Queue.pop t.cache_order);
    Queue.push id t.cache_order;
    Hashtbl.add t.cache id response
  end

(* Batch items run on pool domains, so the plan caches are
   mutex-guarded; compilation happens outside the lock (two racing
   misses both compile — plans are immutable and equal, so
   last-put-wins is harmless).  Per-configuration and family plans live
   in separate tables because their keys come from different digests,
   but they share the lock and the FIFO discipline. *)
let cached_plan t ~table ~order ~key ~compile =
  let cached =
    Mutex.lock t.plan_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.plan_lock)
      (fun () -> Hashtbl.find_opt table key)
  in
  match cached with
  | Some plan ->
    Obs.Metric.incr m_plan_hits;
    plan
  | None ->
    Obs.Metric.incr m_plan_misses;
    Obs.Log.emit ~level:Obs.Log.Debug "serve.plan_compile"
      [ ("key", J.String key) ];
    let plan = compile () in
    Mutex.lock t.plan_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.plan_lock)
      (fun () ->
        if not (Hashtbl.mem table key) then begin
          if Queue.length order >= plan_cache_limit then
            Hashtbl.remove table (Queue.pop order);
          Queue.push key order;
          Hashtbl.add table key plan
        end);
    plan

let plan_for t model =
  cached_plan t ~table:t.plans ~order:t.plan_order
    ~key:(Sim.Compile.plan_key model)
    ~compile:(fun () -> Sim.Compile.compile model)

let family_plan_for t system =
  cached_plan t ~table:t.fplans ~order:t.fplan_order
    ~key:(Sim.Family_compiled.plan_key system)
    ~compile:(fun () -> Sim.Family_compiled.plan system)

(* -- model/tech loading ------------------------------------------------ *)

let load_system source =
  match Lang.Parser.system_of_string source with
  | exception Lang.Parser.Parse_error { line; col; message } ->
    Error (Printf.sprintf "model:%d:%d: %s" line col message)
  | exception Invalid_argument m -> Error (Printf.sprintf "model: %s" m)
  | system -> (
    match V.System.validate system with
    | [] -> Ok system
    | errors ->
      Error
        (String.concat "; "
           (List.map (Format.asprintf "%a" V.System.pp_error) errors)))

let load_tech source =
  match Lang.Tech_file.of_string source with
  | exception Lang.Parser.Parse_error { line; col; message } ->
    Error (Printf.sprintf "tech:%d:%d: %s" line col message)
  | exception Invalid_argument m -> Error (Printf.sprintf "tech: %s" m)
  | tech -> Ok tech

let binding_json = Synth.Bound_store.binding_to_json

let cost_json (c : Synth.Cost.breakdown) =
  J.Obj
    [
      ("total", J.Int c.Synth.Cost.total);
      ("processor", J.Int c.Synth.Cost.processor);
      ( "asics",
        J.List
          (List.map
             (fun (pid, area) ->
               J.List
                 [ J.String (Spi.Ids.Process_id.to_string pid); J.Int area ])
             c.Synth.Cost.asics) );
    ]

(* -- operations -------------------------------------------------------- *)

(* Each runner returns the response plus deferred store commits: batch
   items execute on pool domains, and the journal is single-writer, so
   writes are replayed on the calling domain once the pool has joined. *)

let synthesize t ~deadline_ns ~jobs ~id ~model ~tech ~capacity =
  match (load_system model, load_tech tech) with
  | Error e, _ | _, Error e -> (P.error ?id e, [])
  | Ok system, Ok tech -> (
    let apps = Synth.App.of_system system in
    let warm =
      Option.bind t.store (fun st ->
          Synth.Bound_store.warm_binding ?capacity st tech apps)
    in
    let t0 = Obs.Clock.now_ns () in
    match
      Synth.Explore.solve ~jobs ?capacity ?deadline_ns ?warm tech apps
    with
    | exception Not_found ->
      (P.error ?id "technology library misses an application process", [])
    | Error d ->
      (P.error ?id (Format.asprintf "%a" Synth.Explore.pp_diagnostic d), [])
    | Ok s ->
      Obs.Metric.observe
        (if Option.is_some warm then m_synth_warm else m_synth_cold)
        (Obs.Clock.elapsed_ns t0);
      let response =
        P.ok ?id
          [
            ("op", J.String "synthesize");
            ("degraded", J.Bool s.Synth.Explore.degraded);
            ("warm", J.Bool (Option.is_some warm));
            ("cost", cost_json s.Synth.Explore.cost);
            ("binding", binding_json s.Synth.Explore.binding);
            ("worst_load", J.Int s.Synth.Explore.worst_load);
            ("explored", J.Int s.Synth.Explore.explored);
            ("pruned", J.Int s.Synth.Explore.pruned);
          ]
      in
      let commits =
        match t.store with
        | Some st ->
          [ (fun () -> Synth.Bound_store.remember ?capacity st tech apps s) ]
        | None -> []
      in
      (response, commits))

let pareto ~deadline_ns ~jobs ~id ~model ~tech ~capacity =
  match (load_system model, load_tech tech) with
  | Error e, _ | _, Error e -> (P.error ?id e, [])
  | Ok system, Ok tech -> (
    let apps = Synth.App.of_system system in
    match Synth.Pareto.frontier ~jobs ?capacity ?deadline_ns tech apps with
    | exception Not_found ->
      (P.error ?id "technology library misses an application process", [])
    | { Synth.Pareto.points; degraded } ->
      ( P.ok ?id
          [
            ("op", J.String "pareto");
            ("degraded", J.Bool degraded);
            ( "points",
              J.List
                (List.map
                   (fun (p : Synth.Pareto.point) ->
                     J.Obj
                       [
                         ("cost", J.Int p.Synth.Pareto.total_cost);
                         ("worst_load", J.Int p.Synth.Pareto.worst_load);
                         ("binding", binding_json p.Synth.Pareto.binding);
                       ])
                   points) );
          ],
        [] ))

let outcome_json (r : Sim.Engine.result) =
  J.String (Format.asprintf "%a" Sim.Engine.pp_outcome r.Sim.Engine.outcome)

(* One featured pass over the whole variant space.  The response keeps
   the per-configuration shape of the flat path (one entry per run) and
   adds the sharing summary. *)
let simulate_family t ~id ~jobs ~limits system =
  let module F = Sim.Family_compiled in
  match F.run ~limits ~jobs (family_plan_for t system) with
  | exception Invalid_argument m -> (P.error ?id m, [])
  | report ->
    let runs =
      Array.to_list report.F.runs
      |> List.map (fun (cr : F.config_run) ->
             J.Obj
               [
                 ("configuration", J.Int cr.F.index);
                 ( "assignment",
                   J.String
                     (Format.asprintf "%a" V.Variant_space.pp_assignment
                        cr.F.assignment) );
                 ("end_time", J.Int cr.F.result.Sim.Engine.end_time);
                 ("firings", J.Int cr.F.result.Sim.Engine.firings);
                 ("outcome", outcome_json cr.F.result);
               ])
    in
    ( P.ok ?id
        [
          ("op", J.String "simulate");
          ("family", J.Bool true);
          ("configurations", J.Int (Array.length report.F.runs));
          ("splits", J.Int report.F.splits);
          ("subfamilies", J.Int report.F.subfamilies);
          ("executed_firings", J.Int report.F.executed_firings);
          ("shared_firings", J.Int report.F.shared_firings);
          ("runs", J.List runs);
        ],
      [] )

let simulate t ~id ~jobs ~model ~until ~family =
  match load_system model with
  | Error e -> (P.error ?id e, [])
  | Ok system when family ->
    let limits =
      match until with
      | None -> Sim.Engine.default_limits
      | Some max_time -> { Sim.Engine.default_limits with max_time }
    in
    simulate_family t ~id ~jobs ~limits system
  | Ok system -> (
    match V.Flatten.applications system with
    | exception Invalid_argument m -> (P.error ?id m, [])
    | models ->
      let limits =
        match until with
        | None -> Sim.Engine.default_limits
        | Some max_time -> { Sim.Engine.default_limits with max_time }
      in
      let runs =
        List.map
          (fun (clusters, model) ->
            let name =
              String.concat "+"
                (List.map Spi.Ids.Cluster_id.to_string clusters)
            in
            let r = Sim.Compile.run ~limits (plan_for t model) in
            J.Obj
              [
                ("application", J.String name);
                ("end_time", J.Int r.Sim.Engine.end_time);
                ("firings", J.Int r.Sim.Engine.firings);
                ("outcome", outcome_json r);
              ])
          models
      in
      ( P.ok ?id
          [ ("op", J.String "simulate"); ("runs", J.List runs) ],
        [] ))

(* -- dispatch ---------------------------------------------------------- *)

let deadline_of t ~admitted_ns (r : P.request) =
  match
    (match r.P.deadline_ms with Some _ as d -> d | None -> t.default_deadline_ms)
  with
  | None -> None
  | Some ms -> Some (admitted_ns + (ms * 1_000_000))

let rec run_op t ~admitted_ns ~queue_depth ~jobs (r : P.request) =
  let id = r.P.id in
  let deadline_ns = deadline_of t ~admitted_ns r in
  (* a client override may shrink the pool or grow it up to what the
     machine offers, never past both the daemon's --jobs and the
     hardware: an unbounded domain count stalls the single-threaded
     accept loop for every other client *)
  let jobs =
    match r.P.jobs with
    | Some j when j > 0 -> min j (max t.jobs (Synth.Par.available_jobs ()))
    | Some _ | None -> jobs
  in
  match r.P.op with
  | P.Ping -> (P.ok ?id [ ("op", J.String "ping") ], [])
  | P.Metrics ->
    (* telemetry read-out: never touches the pool or the store, so it
       stays cheap enough to poll mid-batch (spi-variants top does) *)
    ( P.ok ?id
        ([
           ("op", J.String "metrics");
           ("snapshot", Obs.Registry.snapshot ());
           ("exposition", J.String (Obs.Expo.render ()));
         ]
        @
        match t.series with
        | Some s -> [ ("series", Obs.Series.to_json s) ]
        | None -> []),
      [] )
  | P.Stats ->
    ( P.ok ?id
        [
          ("op", J.String "stats");
          ("queue_depth", J.Int queue_depth);
          ( "store_records",
            J.Int (match t.store with Some s -> Store.Keyed.size s | None -> 0)
          );
          ("store", J.Bool (Option.is_some t.store));
          ("jobs", J.Int t.jobs);
        ],
      [] )
  | P.Shutdown ->
    t.shutdown <- true;
    (P.ok ?id [ ("op", J.String "shutdown"); ("draining", J.Bool true) ], [])
  | P.Synthesize { model; tech; capacity } ->
    synthesize t ~deadline_ns ~jobs ~id ~model ~tech ~capacity
  | P.Pareto { model; tech; capacity } ->
    pareto ~deadline_ns ~jobs ~id ~model ~tech ~capacity
  | P.Simulate { model; until; family; compiled = _ } ->
    simulate t ~id ~jobs ~model ~until ~family
  | P.Batch items ->
    (* fan the items out on the pool, one domain each; the store stays
       read-only until the joined commits run below *)
    let results =
      Synth.Par.map ~jobs:(min t.jobs (max 1 (List.length items)))
        (fun item -> run_op t ~admitted_ns ~queue_depth ~jobs:1 item)
        (Array.of_list items)
    in
    let commits =
      Array.to_list results |> List.concat_map (fun (_, commits) -> commits)
    in
    ( P.ok ?id
        [
          ("op", J.String "batch");
          ("results", J.List (Array.to_list (Array.map fst results)));
        ],
      commits )

let fresh_rid t =
  t.rid_seq <- t.rid_seq + 1;
  Printf.sprintf "req-%d" t.rid_seq

let is_degraded response =
  match J.member "degraded" response with Some (J.Bool true) -> true | _ -> false

let handle t ~admitted_ns ~queue_depth (r : P.request) =
  Obs.Metric.incr m_requests;
  match r.P.id with
  | Some id when Hashtbl.mem t.cache id ->
    Obs.Metric.incr m_cache_replays;
    Obs.Log.emit ~level:Obs.Log.Debug "serve.idempotent_replay"
      [ ("rid", J.String id) ];
    (match Hashtbl.find t.cache id with
    | J.Obj fields -> J.Obj (("cached", J.Bool true) :: fields)
    | other -> other)
  | id_opt ->
    (* Every request runs under a freshly minted trace: spans recorded
       anywhere below (explore tasks, simulation runs, batch items on
       pool domains) parent into its tree.  The rid threads through
       the response, the structured log stream and the daemon's
       [--trace] timeline, so one identifier joins all three. *)
    let rid = match id_opt with Some i -> i | None -> fresh_rid t in
    let tr = Obs.Rtrace.create rid in
    let t0 = Obs.Clock.now_ns () in
    let response =
      match
        Obs.Rtrace.with_request tr "serve.request" (fun () ->
            run_op t ~admitted_ns ~queue_depth ~jobs:t.jobs r)
      with
      | exception e ->
        Obs.Metric.incr m_errors;
        Obs.Log.emit ~level:Obs.Log.Error "serve.request_failed"
          [ ("rid", J.String rid); ("exn", J.String (Printexc.to_string e)) ];
        P.error ?id:id_opt (Printexc.to_string e)
      | response, commits ->
        List.iter (fun commit -> commit ()) commits;
        let status = P.status_of_response response in
        if String.equal status "error" then Obs.Metric.incr m_errors;
        let dur_ns = Obs.Clock.elapsed_ns t0 in
        Obs.Metric.observe m_request_ns dur_ns;
        (match r.P.op with
        | P.Metrics -> ()  (* polling must not flood the log stream *)
        | _ ->
          Obs.Log.emit "serve.request"
            [
              ("rid", J.String rid);
              ("status", J.String status);
              ("dur_ms", J.Int (dur_ns / 1_000_000));
              ("queue_depth", J.Int queue_depth);
            ]);
        if is_degraded response then
          Obs.Log.emit ~level:Obs.Log.Warn "serve.degraded"
            [ ("rid", J.String rid) ];
        (match id_opt with
        | Some id -> cache_put t id response
        | None -> ());
        response
    in
    (match t.on_trace with Some f -> f tr | None -> ());
    if r.P.trace then
      match response with
      | J.Obj fields -> J.Obj (fields @ [ ("trace", Obs.Rtrace.to_json tr) ])
      | other -> other
    else response

(* The traced run: per-layer attribution.

   The first [count] requests of the seeded stream are replayed
   in-process twice over, each pass with its own copy of the prefilled
   journal and its own plan cache, so hits and misses match the daemon:

   - through a [Serve.Handler] (the code the daemon runs), timed as a
     whole — [serve.handler_ms] — with the registry's work counters read
     around each call;
   - as the sequence of public layer calls the handler makes, in its
     order, each timed with [Obs.Clock] into an in-memory span.

   The same requests then go to a spawned daemon over the socket, and
   the daemon's counters must equal the in-process handler's exactly.
   Layer self times are span durations (no layer span nests another);
   [serve.unattributed_ms] is handler time minus the layer calls inside
   it. *)

module J = Obs.Json
module W = Workload
module S = Stat
module V = Variants

let count = function
  | W.Synth_stream -> 300
  | W.Sim_family -> 200
  | W.Large_model -> 16

(* -- spans ------------------------------------------------------------- *)

type span = { layer : string; request : int; dur_ns : int }

let spans : span list ref = ref []
let current = ref 0

let timed layer f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  spans := { layer; request = !current; dur_ns = Obs.Clock.now_ns () - t0 } :: !spans;
  r

(* Layers the handler's own time contains; decode and render happen in
   the daemon's event loop, outside [Handler.handle]. *)
let handler_layers =
  [
    "lang.parser";
    "core.validate";
    "lang.tech_file";
    "synth.app";
    "core.canonical";
    "synth.bound_store.lookup";
    "synth.explore";
    "synth.bound_store.remember";
    "sim.plan";
    "sim.run";
  ]

let total layer =
  List.fold_left (fun a s -> if String.equal s.layer layer then a + s.dur_ns else a) 0 !spans

let per_request layer n = S.ms_of_ns (total layer) /. float_of_int (max 1 n)

(* -- the layer calls, in the handler's order --------------------------- *)

type mirror = {
  store : Store.Keyed.t;
  plans : (string, Sim.Family_compiled.plan) Hashtbl.t;
  order : string Queue.t;
}

let stored_binding store key =
  Option.bind (Store.Keyed.find store key) (fun j ->
      Option.bind (J.member "binding" j) Synth.Bound_store.binding_of_json)

(* [Synth.Bound_store.warm_binding], with the key derivation split out
   into its own layer *)
let lookup store pkey akeys =
  match stored_binding store pkey with
  | Some b -> Some b
  | None ->
    List.fold_left
      (fun acc k ->
        match (stored_binding store k, acc) with
        | Some b, None -> Some b
        | Some b, Some prev -> Some (Synth.Binding.union_prefer_left prev b)
        | None, acc -> acc)
      None akeys

let load_system model =
  let system = timed "lang.parser" (fun () -> Lang.Parser.system_of_string model) in
  match timed "core.validate" (fun () -> V.System.validate system) with
  | [] -> system
  | _ -> failwith "generated model fails validation"

let mirror_synth m ~model ~tech ~capacity =
  let system = load_system model in
  let tech = timed "lang.tech_file" (fun () -> Lang.Tech_file.of_string tech) in
  let apps = timed "synth.app" (fun () -> Synth.App.of_system system) in
  let pkey, akeys =
    timed "core.canonical" (fun () ->
        ( Synth.Bound_store.problem_key ?capacity tech apps,
          List.map (Synth.Bound_store.app_key ?capacity tech) apps ))
  in
  let warm = timed "synth.bound_store.lookup" (fun () -> lookup m.store pkey akeys) in
  match
    timed "synth.explore" (fun () ->
        Synth.Explore.solve ~jobs:1 ?capacity ?warm tech apps)
  with
  | Error _ -> failwith "mirror: exploration failed"
  | Ok s ->
    timed "synth.bound_store.remember" (fun () ->
        Synth.Bound_store.remember ?capacity m.store tech apps s)

let mirror_sim m ~model =
  let system = load_system model in
  let key = timed "core.canonical" (fun () -> Sim.Family_compiled.plan_key system) in
  let plan, _ =
    E2e.fifo_find m.plans m.order key (fun () ->
        timed "sim.plan" (fun () -> Sim.Family_compiled.plan system))
  in
  ignore
    (timed "sim.run" (fun () ->
         Sim.Family_compiled.run ~limits:Sim.Engine.default_limits ~jobs:1 plan))

let mirror m (r : Serve.Protocol.request) =
  match r.Serve.Protocol.op with
  | Serve.Protocol.Synthesize { model; tech; capacity } ->
    mirror_synth m ~model ~tech ~capacity
  | Serve.Protocol.Simulate { model; _ } -> mirror_sim m ~model
  | _ -> failwith "mirror: unexpected op"

(* -- the handler pass, with its work counters -------------------------- *)

let cross_checked =
  [
    "explore.nodes_expanded";
    "explore.pruned";
    "explore.solves";
    "store.journal_appends";
    "serve.plan_cache_hits";
    "serve.plan_cache_misses";
    "sim.family.runs";
    "sim.family.configs";
    "sim.family.splits";
    "sim.family.subfamilies";
    "sim.family.shared_firings";
    "sim.family.compiles";
  ]

let read_counters () =
  List.map (fun n -> Obs.Metric.value (Obs.Registry.counter n)) cross_checked

let file_size path = (Unix.stat path).Unix.st_size

let replays = 5

let write_spans path =
  let span s =
    J.Obj
      [
        ("layer", J.String s.layer);
        ("request", J.Int s.request);
        ("dur_ns", J.Int s.dur_ns);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (J.to_string ~minify:true (J.List (List.rev_map span !spans)));
      Out_channel.output_char oc '\n')

let run ~exe ~dir ~kind ~seed =
  let n = count kind in
  let w = W.make kind seed in
  let requests = Array.init n (fun _ -> w.W.next ()) in
  let prefill = Filename.concat dir "prefill" in
  W.write_prefill w prefill;
  let replay_ms =
    S.median
      (List.init replays (fun _ ->
           let t0 = Obs.Clock.now_ns () in
           let st, _ = Store.Keyed.open_store prefill in
           let ns = Obs.Clock.now_ns () - t0 in
           Store.Keyed.close st;
           S.ms_of_ns ns))
  in
  let open_copy name =
    let path = Filename.concat dir name in
    W.copy_file prefill path;
    (path, fst (Store.Keyed.open_store ~fsync:true path))
  in
  let handler_path, handler_store = open_copy "handler" in
  let _, mirror_store = open_copy "mirror" in
  let handler = Serve.Handler.create ~store:handler_store ~jobs:1 () in
  let m = { store = mirror_store; plans = Hashtbl.create 97; order = Queue.create () } in
  (* the daemon logs each request at its default level into /dev/null;
     so does the in-process handler *)
  Obs.Log.set_sink (Some (Obs.Log.channel_sink (open_out "/dev/null")));
  let deltas = Array.make (List.length cross_checked) 0 in
  let handler_ns = ref [] and response_bytes = ref 0 and model_bytes = ref 0 in
  let responses = ref [] in
  let journal0 = file_size handler_path in
  Array.iter
    (fun (r : W.request) ->
      current := r.W.index;
      let req =
        match timed "serve.protocol.decode" (fun () -> Serve.Protocol.parse_request r.W.line) with
        | Ok req -> req
        | Error e -> failwith e
      in
      (match req.Serve.Protocol.op with
      | Serve.Protocol.Synthesize { model; _ } | Serve.Protocol.Simulate { model; _ } ->
        model_bytes := !model_bytes + String.length model
      | _ -> ());
      let before = read_counters () in
      let t0 = Obs.Clock.now_ns () in
      let response =
        Serve.Handler.handle handler ~admitted_ns:t0 ~queue_depth:0 req
      in
      handler_ns := (Obs.Clock.now_ns () - t0) :: !handler_ns;
      List.iteri (fun i (a, b) -> deltas.(i) <- deltas.(i) + (b - a))
        (List.combine before (read_counters ()));
      let line = timed "serve.render" (fun () -> J.to_string ~minify:true response) in
      response_bytes := !response_bytes + String.length line;
      responses := (r, line) :: !responses;
      mirror m req)
    requests;
  let append_bytes = file_size handler_path - journal0 in
  Store.Keyed.close handler_store;
  Store.Keyed.close m.store;
  let responses = List.rev !responses in
  (* the same requests through the daemon *)
  let store = Filename.concat dir "journal" in
  W.copy_file prefill store;
  let d, work, _ = Client.start ~exe ~dir ~store in
  let probe = Client.connect d in
  let i = ref 0 in
  let next () =
    let r = requests.(min !i (n - 1)) in
    incr i;
    r
  in
  let loop = Client.run ~count:n ~seconds:0. ~next ~work ~probe () in
  let snap = E2e.snapshot_of (Client.expect_ok "metrics" (Client.call work Client.metrics_line)) in
  Client.close probe;
  Client.stop d work;
  (* correctness: the in-process answers and the daemon's *)
  let checked_inproc =
    List.map (fun ((r : W.request), line) -> Check.check r.W.expect line) responses
  in
  let checked_daemon = E2e.check_all loop.Client.sent in
  let wrong =
    List.length (List.filter Result.is_error checked_inproc)
    + List.length checked_daemon.E2e.wrong + loop.Client.unanswered
  in
  List.iter (fun (i, e) -> Printf.printf "wrong daemon answer to request %d: %s\n" i e)
    checked_daemon.E2e.wrong;
  let counts = List.filter_map Result.to_option checked_inproc in
  let mismatches =
    List.map2
      (fun name want ->
        let got = E2e.counter snap name in
        if got = want then None
        else Some (Printf.sprintf "daemon counter %s = %d, in-process handler %d" name got want))
      cross_checked (Array.to_list deltas)
    |> List.filter_map Fun.id
  in
  let mismatches =
    mismatches
    @ E2e.queue_waits_mismatch snap ~work:n ~pings:(List.length loop.Client.pings)
  in
  List.iter print_endline mismatches;
  let delta name = List.assoc name (List.combine cross_checked (Array.to_list deltas)) in
  let handler_ms = List.map S.ms_of_ns !handler_ns in
  let handler_mean = List.fold_left ( +. ) 0. handler_ms /. float_of_int n in
  let layers_mean = List.fold_left (fun a l -> a +. per_request l n) 0. handler_layers in
  let daemon_p50 =
    S.median (List.map (fun (s : Client.sent) -> S.ms_of_ns s.Client.latency_ns) loop.Client.sent)
  in
  let explored = delta "explore.nodes_expanded" and pruned = delta "explore.pruned" in
  let hits = delta "serve.plan_cache_hits" and misses = delta "serve.plan_cache_misses" in
  let synth_requests =
    Array.fold_left
      (fun a (r : W.request) -> match r.W.expect with W.Synth _ -> a + 1 | W.Sim _ -> a)
      0 requests
  in
  let warm = List.length (List.filter (fun (c : Check.counts) -> c.Check.warm) counts) in
  let executed = List.fold_left (fun a (c : Check.counts) -> a + c.Check.executed_firings) 0 counts in
  let run_ms = S.ms_of_ns (total "sim.run") in
  let parser_s = S.ms_of_ns (total "lang.parser") /. 1000. in
  let metrics =
    [
      S.metric "serve.protocol.decode_ms" "ms" (per_request "serve.protocol.decode" n);
      S.metric "serve.render_ms" "ms" (per_request "serve.render" n);
      S.metric "serve.response_bytes" "B" (float_of_int !response_bytes /. float_of_int n);
      S.metric "serve.handler_ms" "ms" handler_mean;
      S.metric "serve.unattributed_ms" "ms" (handler_mean -. layers_mean);
      S.metric "serve.transport_ms" "ms" (daemon_p50 -. S.median handler_ms);
      S.metric "serve.queue_wait_p50_ms" "ms"
        (float_of_int (E2e.histogram snap "serve.queue_wait_ns" "p50") /. 1e6);
      S.metric "serve.plan_cache_hit_ratio" "ratio" (S.ratio hits (hits + misses));
      S.metric "lang.parser_ms" "ms" (per_request "lang.parser" n);
      S.metric "lang.parser_mb_per_s" "MB/s"
        (if parser_s > 0. then float_of_int !model_bytes /. 1e6 /. parser_s else 0.);
      S.metric "lang.tech_file_ms" "ms" (per_request "lang.tech_file" n);
      S.metric "core.validate_ms" "ms" (per_request "core.validate" n);
      S.metric "core.canonical_ms" "ms" (per_request "core.canonical" n);
      S.metric "core.configs" "count"
        (float_of_int
           (List.fold_left (fun a (c : Check.counts) -> a + c.Check.configurations) 0 counts));
      S.metric "synth.app_ms" "ms" (per_request "synth.app" n);
      S.metric "synth.explore_ms" "ms" (per_request "synth.explore" n);
      S.metric "synth.explore.nodes" "count" (float_of_int explored);
      S.metric "synth.explore.prune_ratio" "ratio" (S.ratio pruned (explored + pruned));
      S.metric "synth.bound_store.lookup_ms" "ms" (per_request "synth.bound_store.lookup" n);
      S.metric "synth.bound_store.remember_ms" "ms"
        (per_request "synth.bound_store.remember" n);
      S.metric "synth.warm_hit_ratio" "ratio" (S.ratio warm synth_requests);
      S.metric "store.appends" "count" (float_of_int (delta "store.journal_appends"));
      S.metric "store.append_bytes" "B" (float_of_int append_bytes);
      S.metric "store.replay_ms" "ms" replay_ms;
      S.metric "sim.plan_ms" "ms" (per_request "sim.plan" n);
      S.metric "sim.run_ms" "ms" (per_request "sim.run" n);
      S.metric "sim.executed_firings" "count" (float_of_int executed);
      S.metric "sim.shared_firings" "count" (float_of_int (delta "sim.family.shared_firings"));
      S.metric "sim.subfamilies" "count" (float_of_int (delta "sim.family.subfamilies"));
      S.metric "sim.firings_per_ms" "1/ms"
        (if run_ms > 0. then float_of_int executed /. run_ms else 0.);
    ]
  in
  write_spans (Filename.concat dir "spans.json");
  S.print_table
    (Printf.sprintf "%s seed %d: traced replay of %d requests" (W.name kind) seed n)
    metrics;
  (metrics, n, wrong, wrong = 0 && mismatches = [])

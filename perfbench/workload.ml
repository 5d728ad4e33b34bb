(* Seeded request streams for the three daemon workloads.

   Everything here is a pure function of the workload and the seed: the
   daemon only ever sees the generated .spi and tech text, and the
   checker's expectations are derived from the same generated values,
   outside the timed phase. *)

module V = Variants
module I = Spi.Ids
module J = Obs.Json
module P = Serve.Protocol

type kind = Synth_stream | Sim_family | Large_model

let kinds = [ Synth_stream; Sim_family; Large_model ]

let name = function
  | Synth_stream -> "synth-stream"
  | Sim_family -> "sim-family"
  | Large_model -> "large-model"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) kinds

(* What the checker holds a response to: [optimum] is computed once per
   problem by [Synth.Explore.solve] on the generator's own values,
   [oracle] is [Sim.Engine] on every flattened configuration.  Both are
   forced outside the timed phase, for the problems a run sent. *)
type sim_run = { end_time : int; firings : int; outcome : string }

type expect =
  | Synth of {
      tech : Synth.Tech.t Lazy.t;
      apps : Synth.App.t list;
      capacity : int;
      optimum : int Lazy.t;
    }
  | Sim of { oracle : sim_run array Lazy.t }

type request = {
  index : int;
  line : string;  (** one serve/v1 line, without the newline *)
  expect : expect;
  problem : int;
      (** the problem sent: fresh-problem index (synth-stream), pool
          member (sim-family) or request index (large-model) *)
}

(* A record for the journal prefill: a feasible solution of a problem
   the stream never sends. *)
type record = {
  r_tech : Synth.Tech.t;
  r_apps : Synth.App.t list;
  r_capacity : int;
  r_solution : Synth.Explore.solution;
}

type t = {
  prefill : record list;
  next : unit -> request;  (** the stream, in order, without end *)
  plan_key : int -> string;
      (** [Sim.Family_compiled.plan_key] of a sim-family pool member, the
          key of the daemon's plan cache *)
}

let rng seed kind salt =
  Random.State.make
    [| seed; Hashtbl.hash (name kind); salt |]

let line_of ~id op =
  J.to_string ~minify:true
    (P.request_to_json
       { P.id = Some id; deadline_ms = None; jobs = None; trace = false; op })

let no_plan _ = ""

let request_id kind seed i = Printf.sprintf "%s-%d-%d" (name kind) seed i

(* -- synth-stream ------------------------------------------------------- *)

(* bench/main.ml's front-loaded technology: the first [heads] processes in
   decision order get a large hardware area and a small software load.
   The per-process weight is a seeded hash rather than bench/main.ml's
   [seed * 53 mod 100] offset, which gives only 100 distinct libraries
   per shape and would make pool problems collide. *)
let skewed_tech ~heads ~head_area ~seed apps =
  let pids = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  let weight pid = 1 + (Hashtbl.hash (seed, I.Process_id.to_string pid) mod 100) in
  Synth.Tech.make ~processor_cost:15
    (List.mapi
       (fun i pid ->
         let w = weight pid in
         if i < heads then
           (pid, Synth.Tech.both ~load:(4 + (w mod 5)) ~area:(head_area + w))
         else (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
       pids)

(* the figure2-gen-medium shape, or figure2-gen-wide *)
let figure2_system ~seed ~wide =
  V.Generator.generate
    {
      V.Generator.seed;
      shared_processes = (if wide then 7 else 8);
      sites = (if wide then 2 else 3);
      variants_per_site = (if wide then 4 else 2);
      cluster_processes = 3;
      latency_range = (1, 10);
    }

let synth_capacity = 120

type problem = {
  tech : Synth.Tech.t;
  apps : Synth.App.t list;
  model_text : string;
  tech_text : string;
}

let figure2_problem ~seed ~wide =
  let system = figure2_system ~seed ~wide in
  let apps = Synth.App.of_system system in
  let tech = skewed_tech ~heads:6 ~head_area:300 ~seed apps in
  {
    tech;
    apps;
    model_text = Lang.Printer.to_string system;
    tech_text = Lang.Tech_file.to_string ~name:"front_loaded" tech;
  }

(* Every problem and application key a problem would occupy in the
   store.  A problem sharing any of them with an earlier one is redrawn:
   the first request for a fresh problem must run cold, and prefill
   records must never answer a lookup. *)
let fresh_keys used p =
  let keys =
    Synth.Bound_store.problem_key ~capacity:synth_capacity p.tech p.apps
    :: List.map (Synth.Bound_store.app_key ~capacity:synth_capacity p.tech) p.apps
  in
  if List.exists (Hashtbl.mem used) keys then false
  else begin
    List.iter (fun k -> Hashtbl.replace used k ()) keys;
    true
  end

(* The optimum, solved once with [Synth.Explore.solve ~jobs:2] — the
   seeded best-first search, a path independent of the daemon's
   [jobs = 1] one (optimal costs are equal for every job count). *)
let optimum ~capacity tech apps =
  match Synth.Explore.solve ~jobs:2 ~capacity tech apps with
  | Ok s -> s.Synth.Explore.cost.Synth.Cost.total
  | Error _ -> failwith "generated synthesis problem is infeasible"

(* Three requests in four introduce a problem never sent before; the
   rest repeat a uniformly drawn earlier one under a fresh id, so they
   warm-start from the store instead of replaying the idempotency cache.
   Every reported quantile then falls among cold requests, whose time is
   the explorer's: a warm request is mostly front end and a dozen journal
   fsyncs, whose latency swings with the host's disk, and with warm
   requests in the majority (1 in 4, 1 in 20 or 1 in 40 cold) p50 or p90
   landed among them and swung between runs by up to 28%.  A fresh
   problem costs the client well under a millisecond to generate while
   the previous request is in flight; its optimum is solved lazily, by
   the checker after the timed phase. *)
let cold_share = 0.75
let prefill_problems = 150

(* The journal prefill: greedy (feasible, not necessarily optimal)
   records of [prefill_problems] problems no request sends, medium and
   wide shapes alternating — about 1 950 records a daemon replays at
   start-up but never looks up.  [used] collects their keys. *)
let prefill_records seed kind used =
  let pst = rng seed kind 1 in
  let rec other_problem i =
    let p = figure2_problem ~seed:(Random.State.bits pst) ~wide:(i mod 2 = 1) in
    match Synth.Greedy.partition ~capacity:synth_capacity p.tech p.apps with
    | Some g when fresh_keys used p ->
      let worst =
        List.fold_left
          (fun m a -> max m (Synth.Schedule.app_load p.tech g.binding a))
          0 p.apps
      in
      {
        r_tech = p.tech;
        r_apps = p.apps;
        r_capacity = synth_capacity;
        r_solution =
          {
            Synth.Explore.binding = g.Synth.Greedy.binding;
            cost = g.Synth.Greedy.cost;
            worst_load = worst;
            explored = 0;
            pruned = 0;
            degraded = false;
          };
      }
    | Some _ | None -> other_problem i
  in
  List.init prefill_problems other_problem

let synth_stream seed =
  let used = Hashtbl.create 4096 in
  let prefill = prefill_records seed Synth_stream used in
  (* fresh problems, all of the figure2-gen-medium shape: cold explores
     of the wide shape are heavy-tailed (5 to 190 ms in-process, against
     6 to 52 ms) and made run-to-run figures depend on the seed *)
  let st = rng seed Synth_stream 0 in
  let fresh = Hashtbl.create 1024 in
  let rec fresh_problem () =
    let p = figure2_problem ~seed:(Random.State.bits st) ~wide:false in
    if fresh_keys used p then
      (p, lazy (optimum ~capacity:synth_capacity p.tech p.apps))
    else fresh_problem ()
  in
  let draw = rng seed Synth_stream 2 in
  let i = ref 0 in
  let next () =
    let index = !i in
    incr i;
    let k =
      let introduced = Hashtbl.length fresh in
      if introduced = 0 || Random.State.float draw 1.0 < cold_share then begin
        Hashtbl.add fresh introduced (fresh_problem ());
        introduced
      end
      else Random.State.int draw introduced
    in
    let p, optimum = Hashtbl.find fresh k in
    {
      index;
      problem = k;
      line =
        line_of
          ~id:(request_id Synth_stream seed index)
          (P.Synthesize
             {
               model = p.model_text;
               tech = p.tech_text;
               capacity = Some synth_capacity;
             });
      expect =
        Synth
          {
            tech = Lazy.from_val p.tech;
            apps = p.apps;
            capacity = synth_capacity;
            optimum;
          };
    }
  in
  { prefill; next; plan_key = no_plan }

(* -- sim-family ------------------------------------------------------------ *)

(* The pool: 80 models, more than the daemon's 64-entry family-plan
   cache.  Models come in three sizes, by the number of tokens on the
   source channel: 60 light, 15 medium and 5 heavy.  Requests draw
   uniformly, so three quarters are light and one in sixteen is heavy:
   p50 falls among light requests, p90 among medium and p99 among heavy
   ones, each well inside its class.  With one size, p99 was simply the
   slowest moments of the host and swung between runs. *)
let sim_classes = [ (60, 20); (15, 60); (5, 160) ]  (* models, tokens *)

(* 3 sites x 3 variants = 27 configurations, with [tokens] plain tokens
   on the source channel c0 so every configuration fires
   ([serve/v1 simulate] takes no stimuli). *)
let sim_system ~seed ~tokens =
  let g =
    V.Generator.generate
      {
        V.Generator.seed;
        shared_processes = 4;
        sites = 3;
        variants_per_site = 3;
        cluster_processes = 2;
        latency_range = (1, 10);
      }
  in
  let source = I.Channel_id.of_string "c0" in
  let channels =
    List.map
      (fun c ->
        if I.Channel_id.equal (Spi.Chan.id c) source then
          Spi.Chan.queue ~initial:(Spi.Token.replicate tokens Spi.Token.plain) source
        else c)
      (V.System.channels g)
  in
  V.System.make ~processes:(V.System.processes g) ~channels
    ~sites:(V.System.sites g) (V.System.name g)

let outcome_string r =
  Format.asprintf "%a" Sim.Engine.pp_outcome r.Sim.Engine.outcome

(* The reference: Sim.Engine on each flattened configuration, in
   Variant_space.enumerate order (the order of the response's runs). *)
let engine_oracle system =
  V.Variant_space.enumerate system
  |> List.map (fun a ->
         let model = V.Flatten.flatten system (V.Variant_space.to_choice a) in
         let r = Sim.Engine.run ~limits:Sim.Engine.default_limits model in
         {
           end_time = r.Sim.Engine.end_time;
           firings = r.Sim.Engine.firings;
           outcome = outcome_string r;
         })
  |> Array.of_list

let sim_family seed =
  let st = rng seed Sim_family 0 in
  let pool =
    List.concat_map (fun (models, tokens) -> List.init models (fun _ -> tokens)) sim_classes
    |> List.map (fun tokens ->
           let system = sim_system ~seed:(Random.State.bits st) ~tokens in
           ( Lang.Printer.to_string system,
             lazy (engine_oracle system),
             Sim.Family_compiled.plan_key system ))
    |> Array.of_list
  in
  let draw = rng seed Sim_family 2 in
  let i = ref 0 in
  let next () =
    let k = Random.State.int draw (Array.length pool) in
    let text, oracle, _ = pool.(k) in
    let index = !i in
    incr i;
    {
      index;
      problem = k;
      line =
        line_of
          ~id:(request_id Sim_family seed index)
          (P.Simulate
             { model = text; until = None; compiled = true; family = true });
      expect = Sim { oracle };
    }
  in
  let plan_key k =
    let _, _, key = pool.(k) in
    key
  in
  { prefill = prefill_records seed Sim_family (Hashtbl.create 4096); next; plan_key }

(* -- large-model ------------------------------------------------------------ *)

(* ~4.8k processes, two 2-way sites (4 configurations).  Eight processes
   have a hardware option: four on the shared chain, one at the head of
   each cluster.  Everything else is software-only, so the tree is narrow
   and deep: few leaves, wide per-node work. *)
let large_shared = 4800
let large_cluster = 4

let large_system ~seed =
  V.Generator.generate
    {
      V.Generator.seed;
      shared_processes = large_shared;
      sites = 2;
      variants_per_site = 2;
      cluster_processes = large_cluster;
      latency_range = (1, 10);
    }

let hw_capable pid =
  let s = I.Process_id.to_string pid in
  List.mem s [ "S1"; "S1200"; "S2400"; "S3600" ]
  || (String.contains s '.' && Filename.check_suffix s "_1")

let large_loads ~seed apps =
  let st = Random.State.make [| seed; 77 |] in
  I.Process_id.Set.elements (Synth.App.union_procs apps)
  |> List.map (fun pid ->
         if hw_capable pid then
           (pid, `Hw (20 + Random.State.int st 20, 40 + Random.State.int st 60))
         else (pid, `Sw (1 + Random.State.int st 3)))

(* Per-request tech: [shift] moves load between pairs of software-only
   shared processes.  Every application contains both processes of a
   pair, so each application's load, every feasibility verdict and the
   optimal cost are unchanged, while every problem and application key
   of the store differs — each request is cold and appends fresh
   records. *)
let large_tech loads ~seed ~request =
  let st = Random.State.make [| seed; request; 4242 |] in
  let shifts = Hashtbl.create 8 in
  let rec sw_only_shared () =
    let i = 1 + Random.State.int st large_shared in
    if hw_capable (I.Process_id.of_string (Printf.sprintf "S%d" i)) then
      sw_only_shared ()
    else i
  in
  for _ = 1 to 4 do
    let a = sw_only_shared () in
    let b = sw_only_shared () in
    let d = 1 + Random.State.int st 2 in
    if a <> b then begin
      let pa = Printf.sprintf "S%d" a and pb = Printf.sprintf "S%d" b in
      Hashtbl.replace shifts pa (d + Option.value ~default:0 (Hashtbl.find_opt shifts pa));
      Hashtbl.replace shifts pb (Option.value ~default:0 (Hashtbl.find_opt shifts pb) - d)
    end
  done;
  Synth.Tech.make ~processor_cost:15
    (List.map
       (fun (pid, o) ->
         match o with
         | `Hw (load, area) -> (pid, Synth.Tech.both ~load ~area)
         | `Sw load ->
           let d =
             Option.value ~default:0
               (Hashtbl.find_opt shifts (I.Process_id.to_string pid))
           in
           (* loads are 11 to 13; four shifts of at most 2 keep them >= 3 *)
           (pid, Synth.Tech.sw_only ~load:(load + 10 + d)))
       loads)

let large_capacity tech apps =
  (* every application must move about half of its hardware-capable load *)
  List.fold_left
    (fun m (a : Synth.App.t) ->
      let sw, hw =
        I.Process_id.Set.fold
          (fun pid (sw, hw) ->
            let o = Synth.Tech.options_of tech pid in
            let l = match o.Synth.Tech.sw with Some s -> s.Synth.Tech.load | None -> 0 in
            if Option.is_some o.Synth.Tech.hw then (sw, hw + l) else (sw + l, hw))
          a.Synth.App.procs (0, 0)
      in
      max m (sw + (hw / 2)))
    0 apps

let large_model seed =
  let system = large_system ~seed in
  let apps = Synth.App.of_system system in
  let loads = large_loads ~seed apps in
  let base = large_tech loads ~seed ~request:(-1) in
  let capacity = large_capacity base apps in
  let base_text = Lang.Printer.to_string system in
  let optimum = Lazy.from_val (optimum ~capacity base apps) in
  let header = "system " ^ V.System.name system in
  let rest =
    if String.length base_text >= String.length header
       && String.equal (String.sub base_text 0 (String.length header)) header
    then String.sub base_text (String.length header)
           (String.length base_text - String.length header)
    else failwith "large-model: unexpected printer output"
  in
  let i = ref 0 in
  let next () =
    let index = !i in
    incr i;
    let tech = large_tech loads ~seed ~request:index in
    {
      index;
      problem = index;
      line =
        line_of
          ~id:(request_id Large_model seed index)
          (P.Synthesize
             {
               model = Printf.sprintf "%s_r%d%s" header index rest;
               tech = Lang.Tech_file.to_string ~name:"large" tech;
               capacity = Some capacity;
             });
      expect =
        Synth
          {
            tech = lazy (large_tech loads ~seed ~request:index);
            apps;
            capacity;
            optimum;
          };
    }
  in
  { prefill = []; next; plan_key = no_plan }

let make kind seed =
  match kind with
  | Synth_stream -> synth_stream seed
  | Sim_family -> sim_family seed
  | Large_model -> large_model seed

(* -- the journal prefill --------------------------------------------------- *)

let write_prefill t path =
  let store, _ = Store.Keyed.open_store ~fsync:false path in
  List.iter
    (fun r ->
      Synth.Bound_store.remember ~capacity:r.r_capacity store r.r_tech r.r_apps
        r.r_solution)
    t.prefill;
  Store.Keyed.close store

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

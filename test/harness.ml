(* Shared workload builders for the synthesis test-suite: seeded random
   and tie-prone instances for every explorer entry point, brute-force
   lex-least oracles, and the job counts every explorer must agree
   across.  Every builder is deterministic in [seed] so failures
   reported by qcheck shrink to a reproducible instance. *)

module I = Spi.Ids

let pid = I.Process_id.of_string

let seeded seed = Random.State.make [| seed |]

(* Random single-processor instance in the style of the brute-force
   property in [Test_synth]: overlapping applications over a random
   technology.  Large enough that the parallel path actually splits
   (n >= 4). *)
let random_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "q%d" i)) in
  let tech =
    Synth.Tech.make ~processor_cost:(5 + Random.State.int rng 20)
      (List.map
         (fun p ->
           ( p,
             Synth.Tech.both
               ~load:(5 + Random.State.int rng 60)
               ~area:(5 + Random.State.int rng 60) ))
         pids)
  in
  let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
  let apps =
    [
      Synth.App.make "a" (match subset () with [] -> [ List.hd pids ] | s -> s);
      Synth.App.make "b" (match subset () with [] -> [ List.hd pids ] | s -> s);
      Synth.App.make "c" (match subset () with [] -> [ List.hd pids ] | s -> s);
    ]
  in
  (tech, apps)

(* Random instance with a mix of sw-only / hw-only / both options, so
   the search tree has uneven branching — the shape that exercises
   re-splitting and stealing rather than the balanced static split. *)
let random_mixed_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "m%d" i)) in
  let option_for _ =
    match Random.State.int rng 4 with
    | 0 -> Synth.Tech.sw_only ~load:(5 + Random.State.int rng 40)
    | 1 -> Synth.Tech.hw_only ~area:(5 + Random.State.int rng 40)
    | _ ->
      Synth.Tech.both
        ~load:(5 + Random.State.int rng 60)
        ~area:(5 + Random.State.int rng 60)
  in
  let tech =
    Synth.Tech.make
      ~processor_cost:(5 + Random.State.int rng 20)
      (List.map (fun p -> (p, option_for p)) pids)
  in
  let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
  let apps =
    List.init (1 + Random.State.int rng 3) (fun i ->
        Synth.App.make
          (Format.sprintf "a%d" i)
          (match subset () with [] -> [ List.hd pids ] | s -> s))
  in
  (tech, apps)

(* Random multi-processor instance: [n] processes with sw and/or hw
   options over [n_cpu] heterogeneous processors.  Loads are kept small
   relative to capacities so most instances are feasible. *)
let random_multi_instance ~n ~n_cpu ~seed =
  let rng = seeded seed in
  let tech, apps = random_instance ~n ~seed:(seed lxor 0x5bd1e995) in
  ignore tech;
  let pids = List.init n (fun i -> pid (Format.sprintf "q%d" i)) in
  let tech =
    Synth.Tech.make
      (List.map
         (fun p ->
           ( p,
             Synth.Tech.both
               ~load:(5 + Random.State.int rng 50)
               ~area:(5 + Random.State.int rng 60) ))
         pids)
  in
  let procs =
    List.init n_cpu (fun c ->
        Synth.Multi.processor
          ~name:(Format.sprintf "cpu%d" c)
          ~capacity:(60 + Random.State.int rng 80)
          ~cost:(5 + Random.State.int rng 30))
  in
  (tech, procs, apps)

(* Tie-prone instances: hardware areas of 1–3, software loads from
   {10, 20, 30} and a processor cost of 1–3, so many bindings share the
   optimal cost.  Random instances rarely tie; these tie all the time,
   which is the regime where an explorer that only proves the optimal
   {e cost} may return any of several bindings.  [n] may be 0–10. *)
let tie_prone_options rng =
  let load = 10 * (1 + Random.State.int rng 3)
  and area = 1 + Random.State.int rng 3 in
  match Random.State.int rng 6 with
  | 0 -> Synth.Tech.sw_only ~load
  | 1 -> Synth.Tech.hw_only ~area
  | _ -> Synth.Tech.both ~load ~area

let tie_prone_apps rng pids =
  match pids with
  | [] -> [ Synth.App.make "a0" [] ]
  | first :: _ ->
    List.init (1 + Random.State.int rng 3) (fun i ->
        Synth.App.make
          (Format.sprintf "a%d" i)
          (match List.filter (fun _ -> Random.State.int rng 3 > 0) pids with
          | [] -> [ first ]
          | s -> s))

let tie_prone_instance ~n ~seed =
  let rng = seeded seed in
  let pids = List.init n (fun i -> pid (Format.sprintf "t%d" i)) in
  let tech =
    Synth.Tech.make
      ~processor_cost:(1 + Random.State.int rng 3)
      (List.map (fun p -> (p, tie_prone_options rng)) pids)
  in
  (tech, tie_prone_apps rng pids)

(* The explore-json benchmark's figure2-gen-medium workload
   ([skewed_apps_and_tech] in bench/main.ml): a generated Figure-2
   variant system of 26 processes whose first six, in decision order,
   are ASIC-expensive but cheap to schedule.  Explored at capacity
   120. *)
let figure2_gen_medium () =
  let seed = 9 in
  let system =
    Variants.Generator.generate
      {
        Variants.Generator.seed;
        shared_processes = 8;
        sites = 3;
        variants_per_site = 2;
        cluster_processes = 3;
        latency_range = (1, 10);
      }
  in
  let apps = Synth.App.of_system system in
  let pids = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  let weight pid =
    1 + (((Variants.Generator.process_weight pid * 31) + (seed * 53)) mod 100)
  in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.mapi
         (fun i pid ->
           let w = weight pid in
           if i < 6 then (pid, Synth.Tech.both ~load:(4 + (w mod 5)) ~area:(300 + w))
           else (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
         pids)
  in
  (tech, apps)

(* The multi-processor counterpart: processors of equal or near-equal
   cost (1–3) tie on which processor hosts a process, too. *)
let tie_prone_multi_instance ~n ~n_cpu ~seed =
  let rng = seeded seed in
  let tech, apps = tie_prone_instance ~n ~seed:(seed lxor 0x2545f491) in
  let procs =
    List.init n_cpu (fun c ->
        Synth.Multi.processor
          ~name:(Format.sprintf "cpu%d" c)
          ~capacity:(30 + (10 * Random.State.int rng 5))
          ~cost:(1 + Random.State.int rng 3))
  in
  (tech, procs, apps)

(* ------------------- brute-force lex-least oracles ------------------- *)

(* Printed forms: comparing them needs no equality from the code under
   test. *)
let binding_str b = Format.asprintf "%a" Synth.Binding.pp b

(* Every binding of [apps]' processes, in the explorers' canonical order
   (pid order, SW before HW), that passes {!Synth.Schedule.check} —
   independent of the explorers' bookkeeping. *)
let feasible_bindings ?(capacity = Synth.Schedule.default_capacity) tech apps =
  let out = ref [] in
  let rec go procs binding =
    match procs with
    | [] ->
      if
        Synth.Schedule.is_feasible
          (Synth.Schedule.check ~capacity tech binding apps)
      then out := binding :: !out
    | p :: rest ->
      let o = Synth.Tech.options_of tech p in
      if Option.is_some o.Synth.Tech.sw then
        go rest (Synth.Binding.bind p Synth.Binding.Sw binding);
      if Option.is_some o.Synth.Tech.hw then
        go rest (Synth.Binding.bind p Synth.Binding.Hw binding)
  in
  go (I.Process_id.Set.elements (Synth.App.union_procs apps)) Synth.Binding.empty;
  List.rev !out

(* The first binding of least cost in canonical order: the one every
   explorer must return.  [None] when infeasible. *)
let lex_least_optimum ?capacity tech apps =
  List.fold_left
    (fun best b ->
      let c = Synth.Cost.total tech b in
      match best with
      | Some (bc, _) when bc <= c -> best
      | Some _ | None -> Some (c, b))
    None
    (feasible_bindings ?capacity tech apps)

(* A cost-optimal binding other than the canonical one — the next in
   canonical order — for warm starts that seed a different optimum.
   Not the last one: a hardware-first search meets that one first, so
   seeding it could not tell such a search from a canonical one.
   [None] when the optimum is unique or the instance infeasible. *)
let other_optimum ?capacity tech apps =
  match lex_least_optimum ?capacity tech apps with
  | None -> None
  | Some (c, canonical) ->
    List.find_opt
      (fun b ->
        Synth.Cost.total tech b = c && binding_str b <> binding_str canonical)
      (feasible_bindings ?capacity tech apps)

let worst_app_load tech binding apps =
  List.fold_left
    (fun acc a -> max acc (Synth.Schedule.app_load tech binding a))
    0 apps

(* The Pareto frontier by enumeration: non-dominated (cost, worst load)
   vectors sorted by cost, each represented by its first binding in
   canonical order. *)
let pareto_oracle ?capacity tech apps =
  let points =
    List.map
      (fun b -> (Synth.Cost.total tech b, worst_app_load tech b apps, b))
      (feasible_bindings ?capacity tech apps)
  in
  let dominated (c, l, _) =
    List.exists (fun (c', l', _) -> c' <= c && l' <= l && (c' < c || l' < l)) points
  in
  let firsts =
    List.fold_left
      (fun acc ((c, l, _) as p) ->
        if List.exists (fun (c', l', _) -> c = c' && l = l') acc then acc
        else p :: acc)
      []
      (List.filter (fun p -> not (dominated p)) points)
  in
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) firsts

(* Multi-processor oracle: placements in canonical order (software on
   each processor in list order, then HW); a processor is paid once
   anything runs on it, and every (application, processor) load must
   fit the processor's capacity. *)
let lex_least_multi tech (procs : Synth.Multi.processor list) apps =
  let best = ref None in
  let cost_and_fit placed =
    let area =
      List.fold_left
        (fun acc (p, pl) ->
          match pl with
          | Synth.Multi.Hw ->
            acc + (Option.get (Synth.Tech.options_of tech p).Synth.Tech.hw).Synth.Tech.area
          | Synth.Multi.Sw_on _ -> acc)
        0 placed
    in
    let on cpu (_, pl) =
      match pl with
      | Synth.Multi.Sw_on r -> I.Resource_id.equal r cpu.Synth.Multi.id
      | Synth.Multi.Hw -> false
    in
    let cpus =
      List.fold_left
        (fun acc cpu ->
          if List.exists (on cpu) placed then acc + cpu.Synth.Multi.cost else acc)
        0 procs
    in
    let fits =
      List.for_all
        (fun (a : Synth.App.t) ->
          List.for_all
            (fun cpu ->
              List.fold_left
                (fun acc ((p, _) as x) ->
                  if I.Process_id.Set.mem p a.Synth.App.procs && on cpu x then
                    acc
                    + (Option.get (Synth.Tech.options_of tech p).Synth.Tech.sw)
                        .Synth.Tech.load
                  else acc)
                0 placed
              <= cpu.Synth.Multi.capacity)
            procs)
        apps
    in
    (area + cpus, fits)
  in
  let rec go pids placed =
    match pids with
    | [] ->
      let cost, fits = cost_and_fit placed in
      if fits then begin
        match !best with
        | Some (bc, _) when bc <= cost -> ()
        | Some _ | None ->
          best :=
            Some
              ( cost,
                List.fold_left
                  (fun m (p, pl) -> I.Process_id.Map.add p pl m)
                  I.Process_id.Map.empty placed )
      end
    | p :: rest ->
      let o = Synth.Tech.options_of tech p in
      if Option.is_some o.Synth.Tech.sw then
        List.iter
          (fun cpu -> go rest ((p, Synth.Multi.Sw_on cpu.Synth.Multi.id) :: placed))
          procs;
      if Option.is_some o.Synth.Tech.hw then go rest ((p, Synth.Multi.Hw) :: placed)
  in
  go (I.Process_id.Set.elements (Synth.App.union_procs apps)) [];
  !best

(* Printed form of a multi-processor binding, as [binding_str]. *)
let multi_binding_str b =
  String.concat ", "
    (List.map
       (fun (p, pl) ->
         Format.asprintf "%a:%a" I.Process_id.pp p Synth.Multi.pp_placement pl)
       (I.Process_id.Map.bindings b))

(* The whole answer of each explorer as one comparable value. *)
let explore_answer = function
  | None -> None
  | Some s ->
    Some
      ( s.Synth.Explore.cost.Synth.Cost.total,
        binding_str s.Synth.Explore.binding,
        s.Synth.Explore.worst_load )

let multi_answer = function
  | None -> None
  | Some s ->
    Some
      ( s.Synth.Multi.total_cost,
        multi_binding_str s.Synth.Multi.binding,
        List.map
          (fun (r, l) -> (I.Resource_id.to_string r, l))
          s.Synth.Multi.worst_load )

let pareto_answer (f : Synth.Pareto.frontier) =
  List.map
    (fun p ->
      ( p.Synth.Pareto.total_cost,
        p.Synth.Pareto.worst_load,
        binding_str p.Synth.Pareto.binding ))
    f.Synth.Pareto.points

(* The job counts every explorer must agree across: the inline pool,
   two and four domains, and oversubscription (8). *)
let all_jobs = [ 1; 2; 4; 8 ]

(* [agree f] — [f jobs] is identical for every count in [all_jobs]. *)
let agree f =
  match List.map f all_jobs with
  | [] -> true
  | first :: rest -> List.for_all (fun x -> x = first) rest

(* Pool workload that forces at least one steal, deterministically: the
   single seed task pushes [children] subtasks onto its own deque and
   then refuses to return until one of them has run.  The owner is stuck
   inside the seed and the seed cursor is exhausted, so the only way a
   child can run is a steal by another (hungry) worker.  Returns the
   number of tasks that ran ([children + 1]). *)
let force_steals ~jobs ~children () =
  let children_run = Atomic.make 0 in
  Synth.Par.fold ~jobs
    ~init:(fun () -> 0)
    ~merge:( + )
    ~f:(fun ctx acc -> function
      | `Seed ->
        for _ = 1 to children do
          ignore (Synth.Par.push ctx `Child : bool)
        done;
        while Atomic.get children_run = 0 do
          Domain.cpu_relax ()
        done;
        acc + 1
      | `Child ->
        Atomic.incr children_run;
        acc + 1)
    [| `Seed |]

(* ------------------- simulation workloads (Compile) ------------------ *)

(* Seeded simulation workloads for the compiled-vs-interpreted
   differential harness: a generated variant system flattened to a
   model, environment stimuli on its unwritten channels, and the
   configuration sets of its abstraction.  Deterministic in [seed]. *)

let sim_model ~seed =
  let sites = 1 + (seed mod 3) in
  let cluster_processes = 1 + (seed mod 2) in
  let system =
    Variants.Generator.generate
      {
        Variants.Generator.seed;
        shared_processes = 2;
        sites;
        variants_per_site = 2;
        cluster_processes;
        latency_range = (1, 8 + (seed mod 13));
      }
  in
  Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)

let sim_stimuli ?(tokens = 3) model =
  List.concat_map
    (fun cid ->
      List.init tokens (fun i ->
          {
            Sim.Engine.at = 1 + (3 * i);
            channel = cid;
            token = Spi.Token.make ~payload:i ();
          }))
    (I.Channel_id.Set.elements (Spi.Model.unwritten_channels model))

(* ------------------- family simulation workloads --------------------- *)

(* The same generated workload family as [sim_model], but kept as a
   variant system: [Sim.Family_compiled.plan] takes the system itself,
   and the differential harness flattens it once per configuration for
   the per-configuration reference runs. *)
let family_system ~seed =
  let sites = 1 + (seed mod 3) in
  let cluster_processes = 1 + (seed mod 2) in
  Variants.Generator.generate
    {
      Variants.Generator.seed;
      shared_processes = 2;
      sites;
      variants_per_site = 2;
      cluster_processes;
      latency_range = (1, 8 + (seed mod 13));
    }

(* Stimuli restricted to the system's shared (unprefixed) boundary
   channels — every configuration of the space has them, so the family
   run keeps its prefix shared for as long as the variants agree. *)
let family_stimuli ?tokens system =
  List.filter
    (fun s ->
      not (String.contains (I.Channel_id.to_string s.Sim.Engine.channel) '.'))
    (sim_stimuli ?tokens
       (Variants.Flatten.flatten system (Variants.Flatten.first_cluster system)))

(* A fault plan over the model's own processes and channels, scripted
   from [seed]: transients with retries and backoff on half the
   processes, token faults on the first input channel, one scripted
   crash, and a watchdog degradation when the model has configurations
   to fall back to. *)
let sim_fault_plan ~seed ?(configurations = []) model =
  let processes = Spi.Model.processes model in
  let channels = I.Channel_id.Set.elements (Spi.Model.unwritten_channels model) in
  let process_plans =
    List.filteri
      (fun i _ -> (i + seed) mod 2 = 0)
      (List.mapi
         (fun i p ->
           let pid = Spi.Process.id p in
           Sim.Fault.on_process
             ~transient:(Sim.Fault.Probability (0.05 +. (0.05 *. float_of_int (seed mod 4))))
             ~max_retries:(1 + ((seed + i) mod 3))
             ~backoff:(1 + (i mod 3))
             ?crash_at:(if i = 0 && seed mod 5 = 0 then Some (20 + seed mod 17) else None)
             ~overrun:(Sim.Fault.Probability 0.1, 2 + (seed mod 3))
             ~reconf_failure:
               (if seed mod 3 = 0 then Sim.Fault.Probability 0.3 else Sim.Fault.Never)
             pid)
         processes)
  in
  let channel_plans =
    match channels with
    | [] -> []
    | cid :: _ ->
      let fault =
        match seed mod 3 with
        | 0 -> Sim.Fault.Drop
        | 1 -> Sim.Fault.Corrupt
        | _ -> Sim.Fault.Duplicate
      in
      [ Sim.Fault.on_channel cid fault (Sim.Fault.Probability 0.15) ]
  in
  let degrade =
    if configurations = [] then None
    else
      Some
        (Sim.Fault.degradation ~failure_threshold:(1 + (seed mod 2))
           ~fallback:(Sim.Fault.fallback_of_configurations configurations)
           ())
  in
  Sim.Fault.plan ~channels:channel_plans ~processes:process_plans ?degrade
    ~seed ()

(* Family fault plan: [sim_fault_plan] scripted over the first
   configuration's flattened model.  Plan entries naming processes or
   channels absent from another configuration's model are inert there —
   identically in the family engine and in that configuration's own
   [Engine.run].  No degradation: the family engine rejects it. *)
let family_fault_plan ~seed system =
  (* flatten via the first enumerated assignment: unlike
     [Flatten.first_cluster], it also resolves interfaces nested inside
     clusters *)
  let model =
    match Variants.Variant_space.enumerate system with
    | a :: _ -> Variants.Flatten.flatten system (Variants.Variant_space.to_choice a)
    | [] -> assert false
  in
  sim_fault_plan ~seed model

(* ---------------- nested / split-adversarial workloads ---------------- *)

(* A system with a hierarchical variant site: site [nestA] has two outer
   clusters, each embedding an [inner] interface with two variants, plus
   a flat second site [siteB] — 4 subtree choices x 2 = 8
   configurations.  Every cluster level declares internal channels under
   stable names ([nestA.h], [nestA.g], [nestA.inner.w], [siteB.m]), so
   stimuli can target site internals that every configuration declares.
   On odd seeds the second inner variant declares [w] with an initial
   token: the declarations disagree across the space, so the family
   engine's narrow-split test must reject the injection and fall back
   to a full split.  Deterministic in [seed]. *)
let nested_family_system ~seed =
  let rng = seeded seed in
  let chan = I.Channel_id.of_string in
  let lat () =
    let mid = 1 + Random.State.int rng 12 in
    let spread = Random.State.int rng (1 + (mid / 2)) in
    Interval.make (max 0 (mid - spread)) (mid + spread)
  in
  let proc name ~from_ ~to_ =
    Spi.Process.simple ~latency:(lat ())
      ~consumes:[ (from_, Interval.point 1) ]
      ~produces:[ (to_, Spi.Mode.produce (Interval.point 1)) ]
      (pid name)
  in
  let top i = chan (Format.sprintf "c%d" i) in
  let channels = List.init 5 (fun i -> Spi.Chan.queue (top i)) in
  let shared =
    [ proc "S1" ~from_:(top 0) ~to_:(top 1);
      proc "S2" ~from_:(top 1) ~to_:(top 2) ]
  in
  let pin () = Variants.Port.input "pin"
  and pout () = Variants.Port.output "pout" in
  let pin_chan = Variants.Port.channel_of (I.Port_id.of_string "pin")
  and pout_chan = Variants.Port.channel_of (I.Port_id.of_string "pout") in
  let inner_cluster v =
    let w = chan "w" in
    let wchan =
      if v = 2 && seed mod 2 = 1 then
        Spi.Chan.queue ~initial:[ Spi.Token.plain ] w
      else Spi.Chan.queue w
    in
    Variants.Cluster.make ~channels:[ wchan ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "iv%d_1" v) ~from_:pin_chan ~to_:w;
          proc (Format.sprintf "iv%d_2" v) ~from_:w ~to_:pout_chan;
        ]
      (Format.sprintf "inner_var%d" v)
  in
  let inner_site () =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ inner_cluster 1; inner_cluster 2 ]
        "inner"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", chan "h");
          (I.Port_id.of_string "pout", chan "g");
        ];
    }
  in
  let outer_cluster v =
    Variants.Cluster.make
      ~channels:[ Spi.Chan.queue (chan "h"); Spi.Chan.queue (chan "g") ]
      ~sub_sites:[ inner_site () ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "ov%d_in" v) ~from_:pin_chan ~to_:(chan "h");
          proc (Format.sprintf "ov%d_out" v) ~from_:(chan "g") ~to_:pout_chan;
        ]
      (Format.sprintf "nest_var%d" v)
  in
  let nest_site =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ outer_cluster 1; outer_cluster 2 ]
        "nestA"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", top 2); (I.Port_id.of_string "pout", top 3);
        ];
    }
  in
  let flat_cluster v =
    Variants.Cluster.make
      ~channels:[ Spi.Chan.queue (chan "m") ]
      ~ports:[ pin (); pout () ]
      ~processes:
        [
          proc (Format.sprintf "bv%d_1" v) ~from_:pin_chan ~to_:(chan "m");
          proc (Format.sprintf "bv%d_2" v) ~from_:(chan "m") ~to_:pout_chan;
        ]
      (Format.sprintf "siteB_var%d" v)
  in
  let site_b =
    let iface =
      Variants.Interface.make
        ~ports:[ pin (); pout () ]
        ~clusters:[ flat_cluster 1; flat_cluster 2 ]
        "siteB"
    in
    {
      Variants.Structure.iface;
      wiring =
        [
          (I.Port_id.of_string "pin", top 3); (I.Port_id.of_string "pout", top 4);
        ];
    }
  in
  let system =
    Variants.System.make ~processes:shared ~channels
      ~sites:[ nest_site; site_b ]
      (Format.sprintf "nested_seed%d" seed)
  in
  Variants.System.validate_exn system;
  system

(* Split-adversarial stimulus schedule for [nested_family_system]:
   interleaves boundary injections with injections straight into site
   internals — including the nested site's innermost channel — while
   those sites are still cold, forcing the engines through the
   warm-or-split decision at every level.  Every target channel is
   declared by every configuration, so each per-configuration reference
   run accepts the same schedule. *)
let nested_family_stimuli ?(tokens = 3) system =
  ignore system;
  let mk at name i =
    {
      Sim.Engine.at;
      channel = I.Channel_id.of_string name;
      token = Spi.Token.make ~payload:i ();
    }
  in
  List.concat
    (List.init tokens (fun i ->
         [
           mk (1 + (4 * i)) "c0" i;
           mk (2 + (4 * i)) "nestA.h" i;
           mk (3 + (4 * i)) "nestA.inner.w" i;
           mk (4 + (4 * i)) "siteB.m" i;
         ]))

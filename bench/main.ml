(* Benchmark harness: regenerates every table and figure of the paper
   and runs a Bechamel performance suite over the same computations.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1       -- one experiment
     dune exec bench/main.exe -- --no-perf -- skip the Bechamel suite

   Experiments: table1, figure1, figure2, figure3, figure4,
   ablation-serial, ablation-designtime, ablation-overlap,
   ablation-reconf, ablation-stages, ablation-correlation,
   ablation-sensitivity, ablation-heuristic, explore-json.

   Options: --no-perf skips the Bechamel suite, --jobs N runs the
   synthesis explorers on N domains, and explore-json (with optional
   --json FILE, --tiny, --label TEXT) appends a machine-readable perf
   record to the benchmark trajectory (see docs/BENCH.md).
   check-trajectory gates the trajectory file: it fails when the
   freshest record's optimal costs diverge across job counts or its
   aggregate speedup regressed >30%% against the previous record. *)

module I = Spi.Ids
module F1 = Paper.Figure1
module F2 = Paper.Figure2
module V = Variants

(* Global knobs, set once by the argv parse below. *)
let jobs = ref 1
let json_path = ref "BENCH_explore.json"
let tiny = ref false
let label = ref ""
let tolerance = ref 0.3

let header title =
  Format.printf "@.==================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================@."

(* ------------------------------------------------------------------ *)
(* Table 1: system cost.                                               *)
(* ------------------------------------------------------------------ *)

let table1_solutions ?(jobs = 1) () =
  let tech = F2.table1_tech in
  let s1 = Synth.Explore.optimal_exn ~jobs tech [ F2.app1 ] in
  let s2 = Synth.Explore.optimal_exn ~jobs tech [ F2.app2 ] in
  let sup =
    match Synth.Superpose.superpose ~jobs tech [ F2.app1; F2.app2 ] with
    | Some r -> r
    | None -> failwith "superposition infeasible"
  in
  let var = Synth.Explore.optimal_exn ~jobs tech [ F2.app1; F2.app2 ] in
  (s1, s2, sup, var)

let names_of set =
  String.concat ", "
    (List.map I.Process_id.to_string (I.Process_id.Set.elements set))

let table1 () =
  header "Table 1: System Cost (paper: 34 / 38 / 57 / 41)";
  let s1, s2, sup, var = table1_solutions ~jobs:!jobs () in
  let apps = [ F2.app1; F2.app2 ] in
  Format.printf "%-14s | %-26s | %-22s | %5s | %5s@." "" "Software" "Hardware"
    "Total" "Time";
  Format.printf "%s@." (String.make 85 '-');
  let time_of decisions = Synth.Design_time.time ~effort_per_decision:6 ~fixed_overhead:43 ~decisions () in
  let d1 = I.Process_id.Set.cardinal F2.app1.Synth.App.procs in
  let d2 = I.Process_id.Set.cardinal F2.app2.Synth.App.procs in
  let t1 = time_of d1 and t2 = time_of d2 in
  (* variant-aware decisions cost more per decision: joint feasibility
     over all applications is checked at each one *)
  let t_var =
    Synth.Design_time.time ~effort_per_decision:12 ~fixed_overhead:43
      ~decisions:(Synth.Design_time.decisions_variant_aware apps)
      ()
  in
  let row name binding total time =
    Format.printf "%-14s | %-26s | %-22s | %5d | %5d@." name
      (names_of (Synth.Binding.sw_processes binding))
      (names_of (Synth.Binding.hw_processes binding))
      total time
  in
  row "Application 1" s1.Synth.Explore.binding s1.Synth.Explore.cost.Synth.Cost.total t1;
  row "Application 2" s2.Synth.Explore.binding s2.Synth.Explore.cost.Synth.Cost.total t2;
  row "Superposition" sup.Synth.Superpose.merged sup.Synth.Superpose.cost.Synth.Cost.total (t1 + t2);
  row "With variants" var.Synth.Explore.binding var.Synth.Explore.cost.Synth.Cost.total t_var;
  Format.printf "@.Decision counts: independent %d vs variant-aware %d (speedup %.2fx)@."
    (Synth.Design_time.decisions_independent apps)
    (Synth.Design_time.decisions_variant_aware apps)
    (Synth.Design_time.speedup apps);
  Format.printf "Shape checks: variants < superposition: %b; each app < variants: %b@."
    (var.Synth.Explore.cost.Synth.Cost.total < sup.Synth.Superpose.cost.Synth.Cost.total)
    (s1.Synth.Explore.cost.Synth.Cost.total < var.Synth.Explore.cost.Synth.Cost.total
    && s2.Synth.Explore.cost.Synth.Cost.total < var.Synth.Explore.cost.Synth.Cost.total)

(* ------------------------------------------------------------------ *)
(* Figure 1: the SPI example.                                          *)
(* ------------------------------------------------------------------ *)

let figure1_sim policy = Sim.Engine.run ~policy ~stimuli:(F1.stimuli_mixed ~n:12) F1.model

let figure1 () =
  header "Figure 1: SPI example (p1 -> c1 -> p2 -> c2 -> p3)";
  let p2 = Spi.Model.get_process F1.p2 F1.model in
  Format.printf "p2 parameter intervals: latency=%a consume(c1)=%a produce(c2)=%a@."
    Interval.pp (Spi.Process.latency_hull p2) Interval.pp
    (Spi.Process.consumption_hull p2 F1.c1)
    Interval.pp
    (Spi.Process.production_hull p2 F1.c2);
  Format.printf "mode table:@.";
  List.iter (fun m -> Format.printf "  %a@." Spi.Mode.pp m) (Spi.Process.modes p2);
  Format.printf "%-12s | %8s | %8s | %10s@." "policy" "end" "firings" "p3 outputs";
  List.iter
    (fun policy ->
      let r = figure1_sim policy in
      Format.printf "%-12s | %8d | %8d | %10d@."
        (Format.asprintf "%a" Sim.Engine.pp_policy policy)
        r.Sim.Engine.end_time r.Sim.Engine.firings
        (List.length (Sim.Trace.completions ~process:F1.p3 r.Sim.Engine.trace)))
    [ Sim.Engine.Best_case; Sim.Engine.Typical; Sim.Engine.Worst_case ]

(* ------------------------------------------------------------------ *)
(* Figure 2: the system with two function variants.                    *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  header "Figure 2: system with two function variants";
  V.System.validate_exn F2.system;
  Format.printf "%a@." V.System.pp F2.system;
  List.iter (fun i -> Format.printf "%a@." V.Interface.pp i) (V.System.interfaces F2.system);
  Format.printf "@.derived applications (cluster substitution):@.";
  List.iter
    (fun (clusters, model) ->
      Format.printf "  %-8s -> %a@."
        (String.concat "+" (List.map I.Cluster_id.to_string clusters))
        Spi.Model.pp_stats model)
    (V.Flatten.applications F2.system);
  Format.printf "@.variant space: %d combinations@."
    (V.Variant_space.independent_count F2.system)

(* ------------------------------------------------------------------ *)
(* Figure 3: run-time variant selection.                               *)
(* ------------------------------------------------------------------ *)

let figure3_run tag =
  let model, configurations = V.Flatten.abstract F2.system_with_selection in
  let stimuli =
    {
      Sim.Engine.at = 0;
      channel = F2.cv;
      token = Spi.Token.make ~tags:(Spi.Tag.Set.singleton tag) ();
    }
    :: List.init 6 (fun i ->
           {
             Sim.Engine.at = 2 + (3 * i);
             channel = F2.cx;
             token = Spi.Token.make ~payload:(i + 1) ();
           })
  in
  Sim.Engine.run ~configurations ~stimuli ~firing_budget:[ (F2.p_user, 0) ] model

let figure3 () =
  header "Figure 3: run-time variant selection (PUser tags CV)";
  let site =
    match V.System.find_site F2.iface1 F2.system_with_selection with
    | Some s -> s
    | None -> assert false
  in
  let r =
    V.Extraction.extract ~process_name:"PVar" ~wiring:site.V.Structure.wiring
      site.V.Structure.iface
  in
  Format.printf "extracted PVar:@.%a@." V.Extraction.pp_result r;
  Format.printf "@.%-8s | %8s | %12s | %12s | %10s@." "choice" "end"
    "reconfs" "reconf time" "delivered";
  List.iter
    (fun (name, tag) ->
      let res = figure3_run tag in
      Format.printf "%-8s | %8d | %12d | %12d | %10d@." name
        res.Sim.Engine.end_time
        (List.length (Sim.Trace.reconfigurations res.Sim.Engine.trace))
        res.Sim.Engine.reconfiguration_time
        (List.length (Sim.Trace.tokens_produced_on F2.cy res.Sim.Engine.trace)))
    [ ("V1", F2.tag_v1); ("V2", F2.tag_v2) ]

(* ------------------------------------------------------------------ *)
(* Figure 4: the reconfigurable video system.                          *)
(* ------------------------------------------------------------------ *)

let figure4_run ~with_valves =
  let built = Video.System.build { Video.System.default_params with with_valves } in
  let stimuli =
    Video.Scenario.switching_demo ~frames:60 ~period:5
      ~switches:[ (52, "fB"); (151, "fA"); (233, "fB") ]
      ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  Video.Checker.check result

let figure4 () =
  header "Figure 4: reconfigurable video system (3 user requests, 60 frames)";
  Format.printf "%-10s | %6s | %6s | %5s | %7s | %7s | %7s | %s@." "valves"
    "in" "clean" "held" "dropped" "invalid" "reconfs" "safe";
  List.iter
    (fun with_valves ->
      let rep = figure4_run ~with_valves in
      Format.printf "%-10s | %6d | %6d | %5d | %7d | %7d | %7d | %s@."
        (if with_valves then "active" else "removed")
        rep.Video.Checker.frames_in rep.Video.Checker.clean
        rep.Video.Checker.held rep.Video.Checker.dropped
        (List.length rep.Video.Checker.invalid_clean)
        rep.Video.Checker.reconfigurations
        (if Video.Checker.is_safe rep then "SAFE" else "VIOLATED"))
    [ true; false ];
  Format.printf "@.Property: the suspend/resume valves guarantee that no \
                 invalid image is emitted.@."

(* ------------------------------------------------------------------ *)
(* Ablation A1: serialization-order sensitivity ([5], [6]).            *)
(* ------------------------------------------------------------------ *)

let generated_apps_and_tech ?(shared = 3) ?(cluster = 2) ~seed ~sites ~variants
    () =
  let system =
    V.Generator.generate
      {
        V.Generator.seed;
        shared_processes = shared;
        sites;
        variants_per_site = variants;
        cluster_processes = cluster;
        latency_range = (1, 10);
      }
  in
  let apps = Synth.App.of_system system in
  (* mix the seed into the weights: the generated process names repeat
     across seeds, and synthesis only sees loads/areas *)
  let weight pid = 1 + (((V.Generator.process_weight pid * 31) + (seed * 53)) mod 100) in
  let tech =
    Synth.Tech.of_weights ~weight
      (I.Process_id.Set.elements (Synth.App.union_procs apps))
  in
  (apps, tech)

let ablation_serial () =
  header "Ablation A1: serialization order influence (baselines [5],[6])";
  Format.printf "%-6s | %6s | %10s | %10s | %10s | %12s@." "seed" "apps"
    "best ord" "worst ord" "variant" "all-in-one";
  let spread_count = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let apps, tech = generated_apps_and_tech ~seed ~sites:2 ~variants:2 () in
      let orders = Synth.Serial.all_orders tech apps in
      let var = Synth.Explore.optimal tech apps in
      let aio = Synth.Serial.all_in_one tech apps in
      let cost_str = function
        | None -> "infeas"
        | Some c -> string_of_int c
      in
      let var_cost =
        Option.map (fun (s : Synth.Explore.solution) -> s.Synth.Explore.cost.Synth.Cost.total) var
      in
      let aio_cost =
        Option.map (fun (s : Synth.Explore.solution) -> s.Synth.Explore.cost.Synth.Cost.total) aio
      in
      match Synth.Serial.cost_spread orders with
      | Some (best, worst) ->
        incr total;
        if worst > best then incr spread_count;
        Format.printf "%-6d | %6d | %10d | %10d | %10s | %12s@." seed
          (List.length apps) best worst (cost_str var_cost) (cost_str aio_cost)
      | None ->
        Format.printf "%-6d | %6d | %10s | %10s | %10s | %12s@." seed
          (List.length apps) "infeas" "infeas" (cost_str var_cost)
          (cost_str aio_cost))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Format.printf "@.order made a cost difference in %d/%d instances; \
                 variant-aware never exceeds the best order.@."
    !spread_count !total

(* ------------------------------------------------------------------ *)
(* Ablation A2: design time vs number of variants.                     *)
(* ------------------------------------------------------------------ *)

let ablation_designtime () =
  header "Ablation A2: design time (decisions) vs number of variants";
  Format.printf "%-9s | %12s | %14s | %8s@." "variants" "independent"
    "variant-aware" "speedup";
  List.iter
    (fun variants ->
      let system =
        V.Generator.generate
          {
            V.Generator.seed = 7;
            shared_processes = 6;
            sites = 1;
            variants_per_site = variants;
            cluster_processes = 3;
            latency_range = (1, 10);
          }
      in
      let apps = Synth.App.of_system system in
      Format.printf "%-9d | %12d | %14d | %8.2f@." variants
        (Synth.Design_time.decisions_independent apps)
        (Synth.Design_time.decisions_variant_aware apps)
        (Synth.Design_time.speedup apps))
    [ 1; 2; 3; 4; 5; 6 ];
  Format.printf "@.Shared processes are considered once in the variant-aware \
                 flow, so the gap widens with the variant count (Section 5).@."

(* ------------------------------------------------------------------ *)
(* Ablation A3: cost benefit vs functional overlap.                    *)
(* ------------------------------------------------------------------ *)

let ablation_overlap () =
  header "Ablation A3: cost benefit vs functional overlap";
  Format.printf "%-14s | %13s | %13s | %8s@." "shared/variant"
    "superposition" "variant-aware" "saving";
  List.iter
    (fun (shared, cluster) ->
      let system =
        V.Generator.generate
          {
            V.Generator.seed = 11;
            shared_processes = shared;
            sites = 1;
            variants_per_site = 2;
            cluster_processes = cluster;
            latency_range = (1, 10);
          }
      in
      let apps = Synth.App.of_system system in
      let tech =
        Synth.Tech.of_weights ~weight:V.Generator.process_weight
          (I.Process_id.Set.elements (Synth.App.union_procs apps))
      in
      match Synth.Superpose.superpose tech apps, Synth.Explore.optimal tech apps with
      | Some sup, Some var ->
        let s = sup.Synth.Superpose.cost.Synth.Cost.total in
        let v = var.Synth.Explore.cost.Synth.Cost.total in
        Format.printf "%-14s | %13d | %13d | %7.1f%%@."
          (Format.sprintf "%d/%d" shared cluster)
          s v
          (100. *. float_of_int (s - v) /. float_of_int s)
      | _ ->
        Format.printf "%-14s | infeasible@." (Format.sprintf "%d/%d" shared cluster))
    [ (1, 5); (2, 4); (3, 3); (4, 3); (5, 2); (6, 2); (8, 1) ];
  Format.printf "@.The more functionality the variants share, the larger the \
                 advantage of variant-aware optimization.@."

(* ------------------------------------------------------------------ *)
(* Ablation A4: frame loss vs reconfiguration latency.                 *)
(* ------------------------------------------------------------------ *)

let ablation_reconf () =
  header "Ablation A4: frame loss vs reconfiguration latency (Fig. 4 system)";
  Format.printf "%-8s | %6s | %6s | %5s | %7s | %12s | %s@." "t_conf" "in"
    "clean" "held" "dropped" "reconf time" "safe";
  List.iter
    (fun t_conf ->
      let built =
        Video.System.build
          {
            Video.System.variants = [ ("fA", 2, t_conf); ("fB", 3, t_conf) ];
            with_valves = true;
            stages = 2;
          }
      in
      let stimuli =
        Video.Scenario.switching_demo ~frames:40 ~period:5
          ~switches:[ (52, "fB"); (120, "fA") ]
          ()
      in
      let result =
        Sim.Engine.run ~configurations:built.Video.System.configurations
          ~stimuli built.Video.System.model
      in
      let rep = Video.Checker.check result in
      Format.printf "%-8d | %6d | %6d | %5d | %7d | %12d | %s@." t_conf
        rep.Video.Checker.frames_in rep.Video.Checker.clean
        rep.Video.Checker.held rep.Video.Checker.dropped
        rep.Video.Checker.reconfiguration_time
        (if Video.Checker.is_safe rep then "SAFE" else "VIOLATED"))
    [ 0; 2; 4; 8; 16; 32 ];
  Format.printf
    "@.Longer reconfiguration latencies keep the valves closed longer:      frames are dropped or held instead of being emitted invalid.@."

(* ------------------------------------------------------------------ *)
(* Ablation A5: chain length (the paper uses 2 stages "to simplify").  *)
(* ------------------------------------------------------------------ *)

let ablation_stages () =
  header "Ablation A5: N-stage chains (Fig. 4 generalized)";
  Format.printf "%-7s | %6s | %6s | %7s | %12s | %10s | %s@." "stages" "clean"
    "held" "dropped" "mean latency" "worst" "safe";
  List.iter
    (fun stages ->
      let built =
        Video.System.build { Video.System.default_params with stages }
      in
      let stimuli =
        Video.Scenario.switching_demo ~frames:40 ~period:6
          ~switches:[ (60, "fB"); (150, "fA") ]
          ()
      in
      let result =
        Sim.Engine.run ~configurations:built.Video.System.configurations
          ~stimuli built.Video.System.model
      in
      let rep = Video.Checker.check ~stages result in
      let mean, worst =
        match Video.Checker.latency_stats rep with
        | Some (m, w) -> (m, w)
        | None -> (0., 0)
      in
      Format.printf "%-7d | %6d | %6d | %7d | %12.1f | %10d | %s@." stages
        rep.Video.Checker.clean rep.Video.Checker.held
        rep.Video.Checker.dropped mean worst
        (if Video.Checker.is_safe rep then "SAFE" else "VIOLATED"))
    [ 1; 2; 3; 4; 6 ];
  Format.printf
    "@.The suspend/resume protocol scales with the chain: per-frame      latency grows linearly, safety is preserved at every length.@."

(* ------------------------------------------------------------------ *)
(* Ablation A6: mode correlation vs interval hulls (the [9] lineage).  *)
(* ------------------------------------------------------------------ *)

let ablation_correlation () =
  header "Ablation A6: timing bounds, interval hulls vs mode correlation";
  let model = F1.model in
  let constraint_ bound =
    Spi.Constraint_.latency_path ~name:"p1~>p3" ~from_:F1.p1 ~to_:F1.p3 ~bound
  in
  Format.printf "Figure 1 model, end-to-end constraint p1 ~> p3:@.@.";
  Format.printf "%-24s | %s@." "analysis" "outcome (bound 8)";
  Format.printf "%-24s | %a@." "interval hull"
    Spi.Constraint_.pp_outcome
    (Spi.Correlation.hull_outcome model (constraint_ 8));
  (match Spi.Correlation.infer ~channel:F1.c1 model with
  | None -> Format.printf "no correlation inferable@."
  | Some corr ->
    List.iter
      (fun (name, outcome) ->
        Format.printf "%-24s | %a@." ("scenario " ^ name)
          Spi.Constraint_.pp_outcome outcome)
      (Spi.Correlation.check model corr (constraint_ 8));
    Format.printf "%-24s | %a@." "correlated worst case"
      Spi.Constraint_.pp_outcome
      (Spi.Correlation.worst_case model corr (constraint_ 8)));
  Format.printf
    "@.The tags p1 attaches make p2 determinate (Section 2): under the      'a' scenario the chain meets a bound the hull analysis cannot      certify.@."

(* ------------------------------------------------------------------ *)
(* Ablation A7: sensitivity of the Table 1 optimum.                    *)
(* ------------------------------------------------------------------ *)

let ablation_sensitivity () =
  header "Ablation A7: sensitivity of the Table 1 mapping";
  let apps = [ F2.app1; F2.app2 ] in
  Format.printf "%-14s | %-9s | %s@." "process" "parameter" "optimal decision";
  let sweep pid name parameter lo hi =
    match
      Synth.Sensitivity.flip_point ~parameter ~range:(lo, hi) F2.table1_tech
        apps pid
    with
    | Some flip ->
      Format.printf "%-14s | %-9s | %a@." name
        (match parameter with
        | Synth.Sensitivity.Hw_area -> "hw area"
        | Synth.Sensitivity.Sw_load -> "sw load")
        Synth.Sensitivity.pp_flip flip
    | None ->
      Format.printf "%-14s | %-9s | stable over [%d, %d]@." name
        (match parameter with
        | Synth.Sensitivity.Hw_area -> "hw area"
        | Synth.Sensitivity.Sw_load -> "sw load")
        lo hi
  in
  sweep F2.pa "PA" Synth.Sensitivity.Hw_area 26 80;
  sweep F2.pa "PA" Synth.Sensitivity.Sw_load 40 100;
  sweep F2.pb "PB" Synth.Sensitivity.Hw_area 30 200;
  sweep F2.pb "PB" Synth.Sensitivity.Sw_load 30 100;
  sweep F2.unit_g1 "cluster g1" Synth.Sensitivity.Hw_area 19 100;
  sweep F2.unit_g2 "cluster g2" Synth.Sensitivity.Sw_load 55 100;
  Format.printf
    "@.PA's ASIC carries the whole variant-aware advantage: 5 units of      area drift (26 -> 31) and the optimum reverts to a software PA      with PB in hardware.@."

(* ------------------------------------------------------------------ *)
(* Ablation A8: heuristic vs exact partitioning.                       *)
(* ------------------------------------------------------------------ *)

let ablation_heuristic () =
  header "Ablation A8: greedy heuristic vs exact branch-and-bound";
  Format.printf "%-6s | %6s | %10s | %10s | %8s@." "seed" "procs" "heuristic"
    "optimal" "gap";
  List.iter
    (fun seed ->
      let apps, tech = generated_apps_and_tech ~seed ~sites:2 ~variants:2 () in
      let procs =
        I.Process_id.Set.cardinal (Synth.App.union_procs apps)
      in
      match Synth.Greedy.quality_gap tech apps with
      | Some (heuristic, optimal) ->
        Format.printf "%-6d | %6d | %10d | %10d | %7.1f%%@." seed procs
          heuristic optimal
          (100.
          *. float_of_int (heuristic - optimal)
          /. float_of_int (max 1 optimal))
      | None -> Format.printf "%-6d | %6d | infeasible@." seed procs)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Format.printf
    "@.The greedy relief-per-cost heuristic stays within a modest gap of      the exact optimum while scaling linearly; use it past ~30      processes where 2^n search stops being interactive.@."

(* ------------------------------------------------------------------ *)
(* Benchmark trajectory: the explore-json experiment times the         *)
(* branch-and-bound exploration workloads at several domain counts and *)
(* appends one machine-readable record per invocation to a JSON file   *)
(* (default BENCH_explore.json), so runs stay comparable across PRs.   *)
(* Schema: docs/BENCH.md.                                              *)
(* ------------------------------------------------------------------ *)

type explore_run = {
  run_jobs : int;
  wall_s : float;
  run_cost : int option;
  run_explored : int;
  run_pruned : int;
}

let time_explore ~reps f =
  (* min-of-reps wall time; the cost/counters come from the last run *)
  let best_wall = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best_wall then best_wall := dt;
    last := Some r
  done;
  (!best_wall, Option.get !last)

(* Front-loaded technology for the exploration workloads: the first
   [heads] processes in pid order (= the explorer's decision order) get
   a large hardware area and a small software load, modelling a system
   whose front-end blocks are ASIC-expensive but cheap to schedule.
   This is the regime where branch order matters: the hw-first
   sequential reference pays the full cost bound shell once per wrong
   early hardware commitment, while the greedy-seeded best-first
   parallel search discards those subtrees against the shared
   incumbent. *)
let skewed_apps_and_tech ~heads ~head_area ~shared ~cluster ~seed ~sites
    ~variants () =
  let system =
    V.Generator.generate
      {
        V.Generator.seed;
        shared_processes = shared;
        sites;
        variants_per_site = variants;
        cluster_processes = cluster;
        latency_range = (1, 10);
      }
  in
  let apps = Synth.App.of_system system in
  let pids = I.Process_id.Set.elements (Synth.App.union_procs apps) in
  let weight pid =
    1 + (((V.Generator.process_weight pid * 31) + (seed * 53)) mod 100)
  in
  let tech =
    Synth.Tech.make ~processor_cost:15
      (List.mapi
         (fun i pid ->
           let w = weight pid in
           if i < heads then
             (pid, Synth.Tech.both ~load:(4 + (w mod 5)) ~area:(head_area + w))
           else (pid, Synth.Tech.both ~load:((w / 3) + 5) ~area:(w + 10)))
         pids)
  in
  (apps, tech, system)

(* Exploration workloads: the Table 1 system plus Figure-2-style
   generated variant systems large enough that the search tree is the
   dominant cost.  Each workload carries its own processor capacity,
   tuned so the optimum mixes hardware and software placements (an
   all-software optimum collapses the tree; an all-hardware one makes
   the bound exact).  [--tiny] keeps only small instances for CI
   smoke. *)
let explore_workloads () =
  let table1 =
    ( "table1",
      F2.table1_tech,
      [ F2.app1; F2.app2 ],
      Synth.Schedule.default_capacity,
      F2.system )
  in
  let gen name ~seed ~sites ~variants ~shared ~cluster ~capacity =
    let apps, tech, system =
      skewed_apps_and_tech ~heads:6 ~head_area:300 ~shared ~cluster ~seed
        ~sites ~variants ()
    in
    (name, tech, apps, capacity, system)
  in
  if !tiny then
    [
      table1;
      gen "figure2-gen-tiny" ~seed:5 ~sites:2 ~variants:2 ~shared:3 ~cluster:2
        ~capacity:120;
    ]
  else
    [
      table1;
      gen "figure2-gen-medium" ~seed:9 ~sites:3 ~variants:2 ~shared:8
        ~cluster:3 ~capacity:120;
      gen "figure2-gen-wide" ~seed:13 ~sites:2 ~variants:4 ~shared:7 ~cluster:3
        ~capacity:120;
      gen "figure2-gen-large" ~seed:9 ~sites:3 ~variants:3 ~shared:8 ~cluster:3
        ~capacity:140;
    ]

(* Compiled-vs-interpreted simulation over a workload's flattened
   applications (figure2-style systems flatten to one model per cluster
   selection).  The timed section is the event loop only: plans are
   specialized once up front and their one-off cost reported apart as
   [compile_s], matching how simulate/faultsim amortize compilation
   across runs.  Divergent results abort the benchmark — the record
   must never publish a speedup for a wrong simulation. *)
(* Source channels — consumed by some mode, produced by none — are
   where the environment feeds a flattened model; inject a burst of
   tokens on each so the event loop has sustained work to time. *)
let source_stimuli ~burst model =
  let consumed, produced =
    List.fold_left
      (fun (c, p) proc ->
        List.fold_left
          (fun (c, p) mode ->
            ( I.Channel_id.Set.union c (Spi.Mode.consumed_channels mode),
              I.Channel_id.Set.union p (Spi.Mode.produced_channels mode) ))
          (c, p) (Spi.Process.modes proc))
      (I.Channel_id.Set.empty, I.Channel_id.Set.empty)
      (Spi.Model.processes model)
  in
  let sources = I.Channel_id.Set.diff consumed produced in
  List.concat_map
    (fun channel ->
      List.init burst (fun i ->
          { Sim.Engine.at = i; channel; token = Spi.Token.make ~payload:i () }))
    (I.Channel_id.Set.elements sources)

let sim_measurement ~reps name system =
  let models = List.map snd (V.Flatten.applications system) in
  let stimuli = List.map (source_stimuli ~burst:200) models in
  let limits = Sim.Engine.default_limits in
  let t0 = Unix.gettimeofday () in
  let plans = List.map Sim.Compile.compile models in
  let compile_s = Unix.gettimeofday () -. t0 in
  let time f =
    let best = ref infinity and last = ref [] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let rs = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      last := rs
    done;
    (!best, !last)
  in
  let interp_wall, interp =
    time (fun () ->
        List.map2
          (fun m stimuli -> Sim.Engine.run ~limits ~stimuli m)
          models stimuli)
  in
  let compiled_wall, compiled =
    time (fun () ->
        List.map2
          (fun p stimuli -> Sim.Compile.run ~limits ~stimuli p)
          plans stimuli)
  in
  let digest (r : Sim.Engine.result) =
    (r.Sim.Engine.end_time, r.Sim.Engine.firings, r.Sim.Engine.outcome)
  in
  if List.map digest interp <> List.map digest compiled then begin
    Format.eprintf "explore-json: COMPILED SIM DIVERGES on %s@." name;
    exit 1
  end;
  let speedup = if compiled_wall > 0. then interp_wall /. compiled_wall else 1. in
  (interp_wall, compiled_wall, compile_s, speedup)

(* One featured family pass (Sim.Family_compiled) over the workload's
   variant space vs N per-configuration engine runs on the flattened
   models — the family-based simulation claim, measured.  Stimuli go to
   the shared (unprefixed) boundary channels so the family prefix stays
   shared for as long as the variants agree.  Divergent results abort
   the benchmark, exactly like the compiled-vs-interpreted arm: the
   family engine is only a speedup if it is also the same answer. *)
let family_measurement ~reps name system =
  let assignments = V.Variant_space.enumerate system in
  let flatten a = V.Flatten.flatten system (V.Variant_space.to_choice a) in
  (* One scenario, one driven channel: the last site's input port — the
     regime where family-based simulation pays.  The scenario's dataflow
     never reaches the sites upstream, so their variability is never
     split and those configurations ride the same sub-family to the end,
     while every per-configuration pass still simulates the full
     flattened model.  Tokens are staggered so injections interleave
     with firings instead of front-loading the heap. *)
  let stimuli =
    let driven =
      match List.rev (V.System.sites system) with
      | site :: _ ->
        List.find_map
          (fun port ->
            if V.Port.is_input port then
              List.assoc_opt (V.Port.id port) site.V.Structure.wiring
            else None)
          site.V.Structure.iface.V.Structure.iface_ports
      | [] -> None
    in
    let driven =
      match driven with
      | Some c -> Some c
      | None -> (
        (* no sites: fall back to the first shared source channel *)
        match
          List.filter
            (fun s ->
              not
                (String.contains
                   (I.Channel_id.to_string s.Sim.Engine.channel)
                   '.'))
            (source_stimuli ~burst:1 (flatten (List.hd assignments)))
        with
        | s :: _ -> Some s.Sim.Engine.channel
        | [] -> None)
    in
    match driven with
    | None -> []
    | Some channel ->
      List.init 200 (fun i ->
          {
            Sim.Engine.at = 1 + (2 * i);
            channel;
            token = Spi.Token.make ~payload:i ();
          })
  in
  let limits = Sim.Engine.default_limits in
  let time f =
    let best = ref infinity and last = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      last := Some r
    done;
    (!best, Option.get !last)
  in
  (* each per-configuration pass flattens its own model, exactly as a
     sequential sweep over the space would *)
  let npass_wall, per_config =
    time (fun () ->
        List.map (fun a -> Sim.Engine.run ~limits ~stimuli (flatten a))
          assignments)
  in
  (* the featured pass amortizes its plan across runs (that is its
     contract — daemons and sweeps reuse plans), so the plan build sits
     outside the timed region, like [compile_s] in the sim arm *)
  let plan = Sim.Family_compiled.plan system in
  let family_wall, report =
    time (fun () -> Sim.Family_compiled.run ~limits ~stimuli plan)
  in
  let digest (r : Sim.Engine.result) =
    (r.Sim.Engine.end_time, r.Sim.Engine.firings, r.Sim.Engine.outcome)
  in
  let family_digests =
    Array.to_list
      (Array.map
         (fun cr -> digest cr.Sim.Family_compiled.result)
         report.Sim.Family_compiled.runs)
  in
  if List.map digest per_config <> family_digests then begin
    Format.eprintf "explore-json: FAMILY SIM DIVERGES on %s@." name;
    exit 1
  end;
  let speedup = if family_wall > 0. then npass_wall /. family_wall else 1. in
  (npass_wall, family_wall, speedup, List.length assignments)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Format.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let record_to_json ~timestamp ~label ~max_jobs ~metrics workload_rows =
  let b = Buffer.create 1024 in
  let add fmt = Format.ksprintf (Buffer.add_string b) fmt in
  add "  {\n";
  add "    \"schema\": \"bench-explore/v1\",\n";
  add "    \"timestamp\": %.0f,\n" timestamp;
  if label <> "" then add "    \"label\": \"%s\",\n" (json_escape label);
  add "    \"max_jobs\": %d,\n" max_jobs;
  add "    \"workloads\": [\n";
  let n = List.length workload_rows in
  List.iteri
    (fun i
         ( name,
           processes,
           applications,
           capacity,
           runs,
           speedup,
           identical,
           (warm_wall, warm_cost, warm_explored),
           (sim_interp, sim_compiled, sim_compile, sim_speedup),
           (fam_npass, fam_wall, fam_speedup, fam_configs) ) ->
      add "      {\n";
      add "        \"name\": \"%s\",\n" (json_escape name);
      add "        \"processes\": %d,\n" processes;
      add "        \"applications\": %d,\n" applications;
      add "        \"capacity\": %d,\n" capacity;
      add "        \"runs\": [\n";
      let m = List.length runs in
      List.iteri
        (fun j r ->
          add
            "          {\"jobs\": %d, \"wall_s\": %.6f, \"cost\": %s, \
             \"explored\": %d, \"pruned\": %d}%s\n"
            r.run_jobs r.wall_s
            (match r.run_cost with
            | Some c -> string_of_int c
            | None -> "null")
            r.run_explored r.run_pruned
            (if j = m - 1 then "" else ","))
        runs;
      add "        ],\n";
      add "        \"speedup_max_jobs\": %.3f,\n" speedup;
      (* warm-start measurement at max_jobs, an extra field the
         trajectory gate tolerates (and ignores) *)
      add "        \"warm\": {\"wall_s\": %.6f, \"cost\": %s, \"explored\": %d},\n"
        warm_wall
        (match warm_cost with Some c -> string_of_int c | None -> "null")
        warm_explored;
      (* compiled-vs-interpreted simulation, another tolerated extra
         field; results are digest-checked identical before recording *)
      add
        "        \"sim\": {\"interpreted_wall_s\": %.6f, \
         \"compiled_wall_s\": %.6f, \"compile_s\": %.6f, \"speedup\": \
         %.3f},\n"
        sim_interp sim_compiled sim_compile sim_speedup;
      (* one featured family pass vs N per-config engine passes, another
         tolerated-extra field; per-configuration results are
         digest-checked identical before recording *)
      add
        "        \"family_compiled\": {\"npass_wall_s\": %.6f, \
         \"family_wall_s\": %.6f, \"configs\": %d, \"speedup\": %.3f},\n"
        fam_npass fam_wall fam_configs fam_speedup;
      add "        \"costs_identical\": %b\n" identical;
      add "      }%s\n" (if i = n - 1 then "" else ","))
    workload_rows;
  add "    ],\n";
  let total j =
    List.fold_left
      (fun acc (_, _, _, _, runs, _, _, _, _, _) ->
        match List.find_opt (fun r -> r.run_jobs = j) runs with
        | Some r -> acc +. r.wall_s
        | None -> acc)
      0. workload_rows
  in
  let t1 = total 1 and tm = total max_jobs in
  add "    \"aggregate\": {\"wall_s_jobs1\": %.6f, \"wall_s_max_jobs\": %.6f, \
       \"speedup_max_jobs\": %.3f},\n"
    t1 tm
    (if tm > 0. then t1 /. tm else 1.);
  (* the explorer's obs/v1 snapshot for this record's runs, pre-rendered
     because it comes from a different JSON emitter *)
  add "    \"metrics\": %s\n" metrics;
  add "  }";
  Buffer.contents b

(* The trajectory file is a JSON array of records; appending rewrites
   the closing bracket instead of parsing the document. *)
let append_record path record =
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let trimmed = String.trim s in
      if trimmed = "" || trimmed = "[]" then None
      else if String.length trimmed > 0
              && trimmed.[String.length trimmed - 1] = ']' then
        Some (String.sub trimmed 0 (String.length trimmed - 1))
      else None (* malformed: start a fresh array *)
    end
    else None
  in
  let oc = open_out_bin path in
  (match existing with
  | Some prefix ->
    output_string oc (String.trim prefix);
    output_string oc ",\n";
    output_string oc record;
    output_string oc "\n]\n"
  | None ->
    output_string oc "[\n";
    output_string oc record;
    output_string oc "\n]\n");
  close_out oc

let explore_json () =
  header "explore-json: parallel exploration perf trajectory";
  (* start the registry from zero so the embedded snapshot covers
     exactly this experiment's exploration work *)
  Obs.Registry.reset ();
  (* --jobs N narrows the sweep to [1; N] so a multicore CI matrix can
     produce one labelled record per core budget; the default remains
     the full 1/2/4 sweep *)
  let job_counts = if !jobs > 1 then [ 1; !jobs ] else [ 1; 2; 4 ] in
  let max_jobs = List.fold_left max 1 job_counts in
  let reps = if !tiny then 1 else 3 in
  let rows =
    List.map
      (fun (name, tech, apps, capacity, system) ->
        let processes =
          I.Process_id.Set.cardinal (Synth.App.union_procs apps)
        in
        let runs =
          List.map
            (fun jobs ->
              let wall, sol =
                time_explore ~reps (fun () ->
                    Synth.Explore.optimal ~jobs ~capacity tech apps)
              in
              {
                run_jobs = jobs;
                wall_s = wall;
                run_cost =
                  Option.map
                    (fun (s : Synth.Explore.solution) ->
                      s.Synth.Explore.cost.Synth.Cost.total)
                    sol;
                run_explored =
                  (match sol with
                  | Some s -> s.Synth.Explore.explored
                  | None -> 0);
                run_pruned =
                  (match sol with
                  | Some s -> s.Synth.Explore.pruned
                  | None -> 0);
              })
            job_counts
        in
        let wall_of j =
          match List.find_opt (fun r -> r.run_jobs = j) runs with
          | Some r -> r.wall_s
          | None -> nan
        in
        let speedup = wall_of 1 /. wall_of max_jobs in
        let identical =
          match runs with
          | [] -> true
          | r :: rest -> List.for_all (fun q -> q.run_cost = r.run_cost) rest
        in
        if not identical then begin
          Format.eprintf "explore-json: OPTIMAL COSTS DIVERGE on %s@." name;
          exit 1
        end;
        (* warm-vs-cold: remember the optimum in a throwaway store and
           re-solve with the stored binding as the warm incumbent.  The
           store may only change the work, never the answer — a cost
           mismatch here is a correctness bug, not a perf regression. *)
        let warm_wall, warm_cost, warm_explored =
          let path = Filename.temp_file "bench-explore-warm" ".journal" in
          Fun.protect
            ~finally:(fun () ->
              try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              match Synth.Explore.solve ~jobs:max_jobs ~capacity tech apps with
              | Error _ -> (nan, None, 0)
              | Ok cold ->
                let store, _ = Store.Keyed.open_store ~fsync:false path in
                Synth.Bound_store.remember ~capacity store tech apps cold;
                let warm =
                  Synth.Bound_store.warm_binding ~capacity store tech apps
                in
                let wall, sol =
                  time_explore ~reps (fun () ->
                      match
                        Synth.Explore.solve ~jobs:max_jobs ~capacity ?warm
                          tech apps
                      with
                      | Ok s -> Some s
                      | Error _ -> None)
                in
                Store.Keyed.close store;
                ( wall,
                  Option.map
                    (fun (s : Synth.Explore.solution) ->
                      s.Synth.Explore.cost.Synth.Cost.total)
                    sol,
                  match sol with
                  | Some s -> s.Synth.Explore.explored
                  | None -> 0 ))
        in
        let cold_cost =
          match List.rev runs with r :: _ -> r.run_cost | [] -> None
        in
        if warm_cost <> cold_cost then begin
          Format.eprintf "explore-json: WARM COST DIVERGES FROM COLD on %s@."
            name;
          exit 1
        end;
        let (sim_interp, sim_compiled, _, sim_speedup) as sim =
          sim_measurement ~reps name system
        in
        let (fam_npass, fam_wall, fam_speedup, fam_configs) as family =
          family_measurement ~reps name system
        in
        Format.printf
          "%-20s | %2d procs | %2d apps | jobs=1 %8.4fs | jobs=%d %8.4fs | \
           speedup %.2fx | cost %s | sim %8.4fs -> %8.4fs (%.2fx) | family \
           %d cfgs %8.4fs -> %8.4fs (%.2fx)@."
          name processes (List.length apps) (wall_of 1) max_jobs
          (wall_of max_jobs) speedup
          (match (List.hd runs).run_cost with
          | Some c -> string_of_int c
          | None -> "infeas")
          sim_interp sim_compiled sim_speedup fam_configs fam_npass fam_wall
          fam_speedup;
        ( name,
          processes,
          List.length apps,
          capacity,
          runs,
          speedup,
          identical,
          (warm_wall, warm_cost, warm_explored),
          sim,
          family ))
      (explore_workloads ())
  in
  let metrics = Obs.Json.to_string (Obs.Registry.snapshot ()) in
  let record =
    record_to_json ~timestamp:(Unix.time ()) ~label:!label ~max_jobs ~metrics
      rows
  in
  append_record !json_path record;
  Format.printf "@.appended record to %s@." !json_path

(* ------------------------------------------------------------------ *)
(* check-trajectory: the CI regression gate over the trajectory file.  *)
(* ------------------------------------------------------------------ *)

let check_trajectory () =
  header (Format.sprintf "check-trajectory: gate on %s" !json_path);
  match Trajectory.check_file ~tolerance:!tolerance !json_path with
  | Ok summary -> Format.printf "PASS: %s@." summary
  | Error failures ->
    List.iter (fun f -> Format.printf "FAIL: %s@." f) failures;
    exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel performance suite: one Test.make per experiment.           *)
(* ------------------------------------------------------------------ *)

let perf_tests =
  let open Bechamel in
  [
    Test.make ~name:"table1/variant-aware-synthesis"
      (Staged.stage (fun () ->
           ignore (Synth.Explore.optimal F2.table1_tech [ F2.app1; F2.app2 ])));
    Test.make ~name:"table1/superposition"
      (Staged.stage (fun () ->
           ignore (Synth.Superpose.superpose F2.table1_tech [ F2.app1; F2.app2 ])));
    Test.make ~name:"figure1/simulation"
      (Staged.stage (fun () -> ignore (figure1_sim Sim.Engine.Typical)));
    Test.make ~name:"figure2/flatten-all-applications"
      (Staged.stage (fun () -> ignore (V.Flatten.applications F2.system)));
    Test.make ~name:"figure3/extract-and-simulate"
      (Staged.stage (fun () -> ignore (figure3_run F2.tag_v2)));
    Test.make ~name:"figure4/video-simulation"
      (Staged.stage (fun () -> ignore (figure4_run ~with_valves:true)));
    Test.make ~name:"ablation/serial-all-orders"
      (Staged.stage (fun () ->
           let apps, tech = generated_apps_and_tech ~seed:3 ~sites:2 ~variants:2 () in
           ignore (Synth.Serial.all_orders tech apps)));
    Test.make ~name:"ablation/generator"
      (Staged.stage (fun () ->
           ignore
             (V.Generator.generate
                { V.Generator.default with sites = 2; variants_per_site = 3 })));
  ]

let run_perf () =
  header "Bechamel performance suite";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let tests = Test.make_grouped ~name:"spi_variants" perf_tests in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Format.printf "%-45s | %15s | %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      let pp_time ppf t =
        if Float.is_nan t then Format.pp_print_string ppf "n/a"
        else if t > 1e9 then Format.fprintf ppf "%.2f s" (t /. 1e9)
        else if t > 1e6 then Format.fprintf ppf "%.2f ms" (t /. 1e6)
        else if t > 1e3 then Format.fprintf ppf "%.2f us" (t /. 1e3)
        else Format.fprintf ppf "%.0f ns" t
      in
      Format.printf "%-45s | %15s | %8.4f@." name
        (Format.asprintf "%a" pp_time time)
        r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("figure1", figure1);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("ablation-serial", ablation_serial);
    ("ablation-designtime", ablation_designtime);
    ("ablation-overlap", ablation_overlap);
    ("ablation-reconf", ablation_reconf);
    ("ablation-stages", ablation_stages);
    ("ablation-correlation", ablation_correlation);
    ("ablation-sensitivity", ablation_sensitivity);
    ("ablation-heuristic", ablation_heuristic);
    ("explore-json", explore_json);
  ]

let usage () =
  Format.eprintf
    "usage: main.exe [EXPERIMENT...] [--no-perf] [--jobs N] [--tiny] [--json \
     FILE] [--label TEXT] [--tolerance F]@.available experiments: %s, perf, \
     check-trajectory@."
    (String.concat ", " (List.map fst experiments));
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Format.eprintf "%s expects an integer, got %s@." name v;
      exit 1
  in
  let rec parse names = function
    | [] -> List.rev names
    | "--no-perf" :: rest -> parse names rest (* handled below *)
    | "--tiny" :: rest ->
      tiny := true;
      parse names rest
    | "--jobs" :: v :: rest ->
      jobs := int_of "--jobs" v;
      parse names rest
    | "--json" :: v :: rest ->
      json_path := v;
      parse names rest
    | "--label" :: v :: rest ->
      label := v;
      parse names rest
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t -> tolerance := t
      | None ->
        Format.eprintf "--tolerance expects a float, got %s@." v;
        exit 1);
      parse names rest
    | ("--jobs" | "--json" | "--label" | "--tolerance") :: [] -> usage ()
    | a :: _ when String.length a > 2 && String.sub a 0 2 = "--" -> usage ()
    | name :: rest -> parse (name :: names) rest
  in
  let no_perf = List.mem "--no-perf" args in
  let names = parse [] args in
  match names with
  | [] ->
    List.iter (fun (name, f) -> if name <> "explore-json" then f ()) experiments;
    if not no_perf then run_perf ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          if name = "perf" then run_perf ()
          else if name = "check-trajectory" then check_trajectory ()
          else usage ())
      names

(* Differential proof for the family engine (Sim.Family_compiled): for
   every configuration of a variant space, the reference interpreter
   (Sim.Engine), the compiled per-configuration engine (Sim.Compile) and
   the featured pass produce the same result — trace entry for entry,
   final channel contents, outcome, counters, and rendered trace/stats
   bytes (Test_compile.result_eq).  The sharing counters, which no
   per-configuration engine reports, are held to invariants on every
   generated case and pinned on fixed workloads.

   Two suites: "family" drives the engine's contract over generated
   flat systems (policies, fault plans, limits, budgets, job counts) and
   its report helpers; "family_compiled" covers nested variant sites,
   split-adversarial stimuli, split policies and the plan API. *)

module F = Sim.Family_compiled

let render_assignment a =
  Format.asprintf "%a" Variants.Variant_space.pp_assignment a

(* What every report must satisfy, whatever the workload: the leaves
   partition the configuration indices, one leaf per sub-family, each
   leaf's makespan is its members' makespan, and sharing never claims
   more than the per-configuration sweep would have repeated. *)
let sharing_invariants (r : F.report) =
  let n = Array.length r.F.runs in
  let spans = F.makespans r in
  let per_config =
    Array.fold_left
      (fun acc cr -> acc + cr.F.result.Sim.Engine.firings)
      0 r.F.runs
  in
  let members =
    List.concat_map (fun l -> l.F.leaf_members) (Array.to_list r.F.leaves)
  in
  List.sort compare members = List.init n Fun.id
  && r.F.subfamilies = Array.length r.F.leaves
  && Array.for_all
       (fun l ->
         List.for_all
           (fun i -> snd spans.(i) = l.F.leaf_makespan)
           l.F.leaf_members)
       r.F.leaves
  && r.F.executed_firings <= per_config
  && per_config - r.F.executed_firings >= r.F.shared_firings
  && (n <> 1 || (r.F.splits = 0 && r.F.shared_firings = 0))

(* The family pass vs per-configuration Engine and Compile runs, under
   one scenario. *)
let three_way ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults
    ?(jobs = 1) ?split system =
  let report =
    F.run ?policy ?limits ?overflow ?stimuli ?firing_budget ?faults ~jobs
      ?split (F.plan system)
  in
  let assignments = Variants.Variant_space.enumerate system in
  Array.length report.F.runs = List.length assignments
  && sharing_invariants report
  && List.for_all
       (fun (i, assignment) ->
         let model =
           Variants.Flatten.flatten system
             (Variants.Variant_space.to_choice assignment)
         in
         let reference =
           Sim.Engine.run ?policy ?limits ?overflow ?stimuli ?firing_budget
             ?faults model
         in
         let compiled =
           Sim.Compile.run ?policy ?limits ?overflow ?stimuli ?firing_budget
             ?faults
             (Sim.Compile.compile model)
         in
         let cr = report.F.runs.(i) in
         cr.F.index = i
         && render_assignment cr.F.assignment = render_assignment assignment
         && Test_compile.result_eq model reference compiled
         && Test_compile.result_eq model reference cr.F.result)
       (List.mapi (fun i a -> (i, a)) assignments)

(* Every job count must report the identical per-configuration results
   and the identical family statistics. *)
let job_fingerprint ~stimuli ~faults plan jobs =
  let r = F.run ~stimuli ~faults ~jobs plan in
  let runs =
    Array.to_list r.F.runs
    |> List.map (fun cr ->
           Format.asprintf "%d %s %a" cr.F.index
             (render_assignment cr.F.assignment)
             Sim.Trace.pp cr.F.result.Sim.Engine.trace)
    |> String.concat "\n"
  in
  (runs, r.F.splits, r.F.subfamilies, r.F.executed_firings, r.F.shared_firings)

let jobs_invariant ~stimuli ~faults system =
  let plan = F.plan system in
  let reference = job_fingerprint ~stimuli ~faults plan 1 in
  List.for_all
    (fun jobs -> job_fingerprint ~stimuli ~faults plan jobs = reference)
    [ 2; 4 ]

let policy_of_seed seed =
  match seed mod 3 with
  | 0 -> Sim.Engine.Best_case
  | 1 -> Sim.Engine.Typical
  | _ -> Sim.Engine.Worst_case

(* ===================== "family": flat generated systems ============= *)

let prop_generated_workloads =
  QCheck.Test.make ~name:"family = per-config engine (generated systems)"
    ~count:30
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.family_system ~seed in
      let stimuli = Harness.family_stimuli system in
      List.for_all
        (fun policy -> three_way ~policy ~stimuli system)
        [ Sim.Engine.Best_case; Sim.Engine.Typical; Sim.Engine.Worst_case ])

let prop_generated_with_faults =
  QCheck.Test.make ~name:"family = per-config engine (fault plans)" ~count:25
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.family_system ~seed in
      let stimuli = Harness.family_stimuli ~tokens:5 system in
      let faults = Harness.family_fault_plan ~seed system in
      three_way ~stimuli ~faults system)

let prop_limits_and_budgets =
  QCheck.Test.make ~name:"family = per-config engine (limits, budgets)"
    ~count:20
    QCheck.(pair (int_range 0 999) (int_range 1 30))
    (fun (seed, max_firings) ->
      let system = Harness.family_system ~seed in
      let stimuli = Harness.family_stimuli ~tokens:4 system in
      let limits = { Sim.Engine.max_time = 200; max_firings } in
      let firing_budget =
        List.filteri
          (fun i _ -> i mod 2 = 0)
          (List.map
             (fun p -> (Spi.Process.id p, 1 + (seed mod 3)))
             (Spi.Model.processes
                (Variants.Flatten.flatten system
                   (Variants.Flatten.first_cluster system))))
      in
      three_way ~limits ~stimuli ~firing_budget system)

(* Sub-families become steal-able tasks on the domain pool. *)
let prop_jobs_invariant =
  QCheck.Test.make ~name:"family run is job-count invariant" ~count:6
    QCheck.(int_range 0 999)
    (fun seed ->
      let system = Harness.family_system ~seed:((seed * 3) + 2) in
      let stimuli = Harness.family_stimuli ~tokens:4 system in
      let faults = Harness.family_fault_plan ~seed system in
      jobs_invariant ~stimuli ~faults system)

(* The acceptance sweep: 200 seeded systems mixing policies and fault
   plans, every configuration byte-identical to its own engine runs. *)
let test_200_systems () =
  for seed = 0 to 199 do
    let system = Harness.family_system ~seed in
    let stimuli = Harness.family_stimuli system in
    let faults =
      if seed mod 2 = 1 then Some (Harness.family_fault_plan ~seed system)
      else None
    in
    Alcotest.(check bool)
      (Format.sprintf "workload %d" seed)
      true
      (three_way ~policy:(policy_of_seed seed) ~stimuli ?faults system)
  done

(* The point of the whole exercise: on a sharing-friendly workload the
   family engine executes strictly fewer firings than the
   per-configuration sweep it replaces, because the shared prefix ran
   once for every member. *)
let test_sharing_pays () =
  let system = Harness.family_system ~seed:2 (* 3 sites, 8 configurations *) in
  let stimuli = Harness.family_stimuli system in
  let report = F.run ~stimuli (F.plan system) in
  let per_config =
    Array.fold_left
      (fun acc cr -> acc + cr.F.result.Sim.Engine.firings)
      0 report.F.runs
  in
  Alcotest.(check int) "8 configurations" 8 (Array.length report.F.runs);
  Alcotest.(check bool) "some firings were shared" true
    (report.F.shared_firings > 0);
  Alcotest.(check bool) "family executed fewer firings than N passes" true
    (report.F.executed_firings < per_config)

let test_makespans () =
  let system = Harness.family_system ~seed:5 in
  let stimuli = Harness.family_stimuli system in
  let report = F.run ~stimuli (F.plan system) in
  let spans = F.makespans report in
  Alcotest.(check int) "one makespan per configuration"
    (Array.length report.F.runs) (Array.length spans);
  Array.iteri
    (fun i (index, makespan) ->
      let expected =
        List.fold_left
          (fun acc e ->
            match e with
            | Sim.Trace.Completed { time; _ } -> max acc time
            | _ -> acc)
          0 report.F.runs.(i).F.result.Sim.Engine.trace
      in
      Alcotest.(check int) (Format.sprintf "index %d" i) i index;
      Alcotest.(check int)
        (Format.sprintf "makespan of config %d" i)
        expected makespan)
    spans

(* The family lane convention: configuration [i] exports as process
   group [pid = i + 1], so one trace file holds every configuration's
   schedule side by side. *)
let test_timeline_lanes () =
  let system = Harness.family_system ~seed:4 in
  let stimuli = Harness.family_stimuli system in
  let report = F.run ~stimuli (F.plan system) in
  let t = Obs.Trace_event.create () in
  F.emit_timeline (Obs.Trace_event.buffer_sink t) system report;
  let configs = Array.length report.F.runs in
  let pids =
    List.sort_uniq compare
      (List.map Obs.Trace_event.pid_of (Obs.Trace_event.events t))
  in
  Alcotest.(check bool) "events were emitted" true (Obs.Trace_event.length t > 0);
  Alcotest.(check bool)
    (Format.sprintf "pids cover 1..%d" configs)
    true
    (List.for_all (fun pid -> pid >= 1 && pid <= configs) pids
    && List.length pids = configs)

(* A degradation policy needs per-configuration watchdog state, which
   the featured pass does not keep: the family engine refuses such a
   plan under every split policy and job count, while the same seed
   without a degradation policy runs. *)
let test_family_degradation_rejected () =
  let system = Harness.family_system ~seed:1 in
  let plan = F.plan system in
  let degrading =
    Sim.Fault.plan
      ~degrade:(Sim.Fault.degradation ~fallback:(fun _ _ -> None) ())
      ~seed:7 ()
  in
  List.iter
    (fun (split, jobs, label) ->
      let rejected =
        match F.run ~faults:degrading ~split ~jobs plan with
        | (_ : F.report) -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) ("rejected, " ^ label) true rejected)
    [
      (`Narrow, 1, "narrow, 1 job");
      (`Full, 1, "full, 1 job");
      (`Narrow, 2, "narrow, 2 jobs");
    ];
  let report = F.run ~faults:(Sim.Fault.plan ~seed:7 ()) plan in
  Alcotest.(check int) "without degradation every configuration runs"
    (F.configurations plan)
    (Array.length report.F.runs)

let family_suite =
  ( "family",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_generated_workloads;
      QCheck_alcotest.to_alcotest ~long:false prop_generated_with_faults;
      QCheck_alcotest.to_alcotest ~long:false prop_limits_and_budgets;
      QCheck_alcotest.to_alcotest ~long:false prop_jobs_invariant;
      Alcotest.test_case "200 seeded systems are byte-identical" `Slow
        test_200_systems;
      Alcotest.test_case "shared prefixes execute once" `Quick
        test_sharing_pays;
      Alcotest.test_case "degradation plans are rejected" `Quick
        test_family_degradation_rejected;
      Alcotest.test_case "makespans follow the traces" `Quick test_makespans;
      Alcotest.test_case "timeline lanes per configuration" `Quick
        test_timeline_lanes;
    ] )

(* =========== "family_compiled": nested sites, splits, plans ========= *)

let prop_nested_adversarial =
  QCheck.Test.make
    ~name:"three-way differential (nested sites, adversarial stimuli)"
    ~count:20
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      three_way ~stimuli system && three_way ~stimuli ~split:`Full system)

let prop_nested_with_faults =
  QCheck.Test.make ~name:"three-way differential (nested sites, fault plans)"
    ~count:15
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli ~tokens:4 system in
      let faults = Harness.family_fault_plan ~seed system in
      three_way ~stimuli ~faults system)

(* The narrow heuristic's contract: it never forks more sub-families
   than full splitting, and the per-configuration results are identical
   under both policies. *)
let prop_narrow_never_worse =
  QCheck.Test.make ~name:"narrow splitting <= full splitting, same results"
    ~count:20
    QCheck.(int_range 0 9999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      let plan = F.plan system in
      let fingerprint (r : F.report) =
        Array.to_list r.F.runs
        |> List.map (fun cr ->
               Format.asprintf "%d %a" cr.F.index Sim.Trace.pp
                 cr.F.result.Sim.Engine.trace)
        |> String.concat "\n"
      in
      let narrow = F.run ~stimuli ~split:`Narrow plan in
      let full = F.run ~stimuli ~split:`Full plan in
      narrow.F.splits <= full.F.splits
      && narrow.F.subfamilies <= full.F.subfamilies
      && fingerprint narrow = fingerprint full)

(* One compiled plan serves every job count. *)
let prop_nested_jobs_invariant =
  QCheck.Test.make ~name:"compiled family run is job-count invariant" ~count:5
    QCheck.(int_range 0 999)
    (fun seed ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      let faults = Harness.family_fault_plan ~seed system in
      jobs_invariant ~stimuli ~faults system)

(* The acceptance sweep: 200 seeded workloads alternating flat and
   nested systems, policies, fault plans and split heuristics — every
   configuration byte-identical across the three engines. *)
let test_200_workloads () =
  for seed = 0 to 199 do
    let system, stimuli =
      if seed mod 2 = 0 then
        let s = Harness.family_system ~seed in
        (s, Harness.family_stimuli s)
      else
        let s = Harness.nested_family_system ~seed in
        (s, Harness.nested_family_stimuli s)
    in
    let faults =
      if seed mod 4 = 3 then Some (Harness.family_fault_plan ~seed system)
      else None
    in
    let split = if seed mod 5 = 0 then `Full else `Narrow in
    Alcotest.(check bool)
      (Format.sprintf "workload %d" seed)
      true
      (three_way ~policy:(policy_of_seed seed) ~stimuli ?faults ~split system)
  done

(* Headroom is computed once per leaf and must agree with
   per-configuration makespans. *)
let test_headroom_per_leaf () =
  let system = Harness.nested_family_system ~seed:6 in
  let stimuli = Harness.nested_family_stimuli system in
  let report = F.run ~stimuli (F.plan system) in
  let deadline = 50 in
  let spans = F.makespans report in
  let head = F.headroom ~deadline report in
  Alcotest.(check int) "one headroom per configuration" (Array.length spans)
    (Array.length head);
  Array.iteri
    (fun i (index, h) ->
      let mi, makespan = spans.(i) in
      Alcotest.(check int) (Format.sprintf "index %d" i) mi index;
      Alcotest.(check int)
        (Format.sprintf "headroom of config %d" i)
        (deadline - makespan) h)
    head;
  Alcotest.(check bool) "sharing invariants" true (sharing_invariants report)

(* One plan, many runs: scenario parameters bind at run time, and a
   reused plan must behave exactly like a fresh one. *)
let test_plan_reuse () =
  let system = Harness.nested_family_system ~seed:3 in
  let plan = F.plan system in
  let stim_a = Harness.nested_family_stimuli system in
  let stim_b = Harness.nested_family_stimuli ~tokens:5 system in
  let render stimuli plan =
    let r = F.run ~stimuli plan in
    Array.to_list r.F.runs
    |> List.map (fun cr ->
           Format.asprintf "%a" Sim.Trace.pp cr.F.result.Sim.Engine.trace)
    |> String.concat "\n"
  in
  let a1 = render stim_a plan in
  let b1 = render stim_b plan in
  let a2 = render stim_a (F.plan system) in
  let b2 = render stim_b (F.plan system) in
  Alcotest.(check bool) "scenario A reproduces on a reused plan" true
    (a1 = a2);
  Alcotest.(check bool) "scenario B reproduces on a reused plan" true
    (b1 = b2);
  Alcotest.(check bool) "the scenarios differ" true (a1 <> b1)

let test_plan_key () =
  let sys_a = Harness.nested_family_system ~seed:1 in
  let sys_b = Harness.nested_family_system ~seed:2 in
  let plan_a = F.plan sys_a in
  Alcotest.(check string) "plan_key matches the compiled plan's key"
    (F.plan_key sys_a) (F.key plan_a);
  Alcotest.(check bool) "different systems, different keys" true
    (F.plan_key sys_a <> F.plan_key sys_b);
  Alcotest.(check int) "configuration count"
    (List.length (Variants.Variant_space.enumerate sys_a))
    (F.configurations plan_a)

let test_degradation_rejected () =
  let system = Harness.family_system ~seed:1 in
  let plan = F.plan system in
  let faults =
    Sim.Fault.plan
      ~degrade:(Sim.Fault.degradation ~fallback:(fun _ _ -> None) ())
      ~seed:7 ()
  in
  let rejected =
    match F.run ~faults plan with
    | (_ : F.report) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "degradation plans are rejected" true rejected

(* --------------------------- pinned counters ------------------------- *)

(* The sharing counters have no per-configuration oracle, so fixed
   workloads pin them: the figure models under their bundled CLI
   scenarios, the harness generators at fixed seeds, and a scenario
   driving only the last site's input port, where untouched upstream
   sites never split.  Each row: (splits, subfamilies, executed,
   shared), then the leaves as (members, makespan). *)

module F2 = Paper.Figure2

let figure2_stimuli =
  List.init 5 (fun i ->
      {
        Sim.Engine.at = 1 + (3 * i);
        channel = F2.cx;
        token = Spi.Token.make ~payload:(i + 1) ();
      })

let figure3_stimuli tag =
  {
    Sim.Engine.at = 0;
    channel = F2.cv;
    token = Spi.Token.make ~tags:(Spi.Tag.Set.singleton tag) ();
  }
  :: List.init 5 (fun i ->
         {
           Sim.Engine.at = 2 + (3 * i);
           channel = F2.cx;
           token = Spi.Token.make ~payload:(i + 1) ();
         })

(* Six staggered tokens into the last site's input port. *)
let last_site_stimuli system =
  let module V = Variants in
  match List.rev (V.System.sites system) with
  | [] -> []
  | site :: _ -> (
    match
      List.find_map
        (fun port ->
          if V.Port.is_input port then
            List.assoc_opt (V.Port.id port) site.V.Structure.wiring
          else None)
        site.V.Structure.iface.V.Structure.iface_ports
    with
    | None -> []
    | Some channel ->
      List.init 6 (fun i ->
          {
            Sim.Engine.at = 1 + (2 * i);
            channel;
            token = Spi.Token.make ~payload:i ();
          }))

let test_pinned_counters () =
  let check name ?split ?firing_budget ~stimuli system
      (splits, subfamilies, executed, shared) leaves =
    let r = F.run ?split ?firing_budget ~stimuli (F.plan system) in
    Alcotest.(check (list int))
      (name ^ ": splits, subfamilies, executed, shared")
      [ splits; subfamilies; executed; shared ]
      [ r.F.splits; r.F.subfamilies; r.F.executed_firings; r.F.shared_firings ];
    Option.iter
      (fun leaves ->
        Alcotest.(check (list (pair (list int) int)))
          (name ^ ": leaves") leaves
          (Array.to_list
             (Array.map (fun l -> (l.F.leaf_members, l.F.leaf_makespan)) r.F.leaves)))
      leaves
  in
  (* figure2-g1 and figure2-g2 run the same space under one scenario *)
  check "figure2" ~stimuli:figure2_stimuli F2.system (1, 2, 44, 1)
    (Some [ ([ 0 ], 29); ([ 1 ], 35) ]);
  check "figure2 idle" ~stimuli:[] F2.system (0, 1, 0, 0)
    (Some [ ([ 0; 1 ], 0) ]);
  List.iter
    (fun (name, tag) ->
      check name ~stimuli:(figure3_stimuli tag)
        ~firing_budget:[ (F2.p_user, 0) ]
        F2.system_with_selection (1, 2, 44, 1)
        (Some [ ([ 0 ], 30); ([ 1 ], 36) ]))
    [ ("figure3-v1", F2.tag_v1); ("figure3-v2", F2.tag_v2) ];
  List.iter
    (fun (seed, counters) ->
      let system = Harness.family_system ~seed in
      check
        (Format.sprintf "flat seed %d" seed)
        ~stimuli:(Harness.family_stimuli system) system counters None)
    [
      (0, (1, 2, 14, 4));
      (1, (3, 4, 56, 10));
      (2, (7, 8, 73, 17));
      (3, (1, 2, 20, 4));
      (4, (3, 4, 33, 9));
      (5, (7, 8, 109, 37));
      (6, (1, 2, 15, 3));
      (7, (3, 4, 51, 15));
    ];
  List.iter
    (fun (seed, counters) ->
      let system = Harness.nested_family_system ~seed in
      let stimuli = Harness.nested_family_stimuli system in
      check (Format.sprintf "nested seed %d" seed) ~stimuli system counters None;
      check
        (Format.sprintf "nested seed %d, full split" seed)
        ~split:`Full ~stimuli system counters None)
    [
      (0, (7, 8, 417, 9));
      (1, (7, 8, 436, 12));
      (2, (7, 8, 417, 9));
      (3, (7, 8, 434, 14));
    ];
  List.iter
    (fun (seed, counters, leaves) ->
      let system = Harness.family_system ~seed in
      check
        (Format.sprintf "last site, seed %d" seed)
        ~stimuli:(last_site_stimuli system) system counters (Some leaves))
    [
      (2, (1, 2, 12, 12), [ ([ 0; 2; 4; 6 ], 25); ([ 1; 3; 5; 7 ], 19) ]);
      (5, (1, 2, 24, 24), [ ([ 0; 2; 4; 6 ], 51); ([ 1; 3; 5; 7 ], 81) ]);
      (8, (1, 2, 12, 12), [ ([ 0; 2; 4; 6 ], 37); ([ 1; 3; 5; 7 ], 67) ]);
    ];
  let one =
    Variants.Generator.generate { Variants.Generator.default with sites = 0 }
  in
  check "one configuration" ~stimuli:(Harness.family_stimuli one) one
    (0, 1, 6, 0)
    (Some [ ([ 0 ], 30) ])

let suite =
  ( "family_compiled",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_nested_adversarial;
      QCheck_alcotest.to_alcotest ~long:false prop_nested_with_faults;
      QCheck_alcotest.to_alcotest ~long:false prop_narrow_never_worse;
      QCheck_alcotest.to_alcotest ~long:false prop_nested_jobs_invariant;
      Alcotest.test_case "sharing counters are pinned" `Quick
        test_pinned_counters;
      Alcotest.test_case "200 seeded workloads, three engines byte-identical"
        `Slow test_200_workloads;
      Alcotest.test_case "headroom agrees with per-config makespans" `Quick
        test_headroom_per_leaf;
      Alcotest.test_case "plans are reusable across scenarios" `Quick
        test_plan_reuse;
      Alcotest.test_case "plan keys are stable and discriminating" `Quick
        test_plan_key;
      Alcotest.test_case "degradation plans are rejected" `Quick
        test_degradation_rejected;
    ] )

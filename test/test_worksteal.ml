(* Differential proof of the work-stealing scheduler: every explorer
   entry point must return the same answer — cost, binding and loads,
   not only the cost — for every job count, on random and on tie-prone
   workloads, and that answer must be the brute-force lex-least optimum
   (the canonical tie-break of {!Synth.Search}).  Plus direct regression
   tests for the scheduler itself: deterministic forced stealing, prompt
   cancellation after a failure, and re-split accounting. *)

(* ----------------------- differential properties -------------------- *)

(* The answer every run must give: the oracle's lex-least optimum, with
   its worst application load. *)
let oracle_answer tech apps =
  Option.map
    (fun (c, b) -> (c, Harness.binding_str b, Harness.worst_app_load tech b apps))
    (Harness.lex_least_optimum tech apps)

(* Re-check a returned binding outside the search's own bookkeeping: it
   passes the schedulability check and re-costs to the reported total. *)
let sound tech apps = function
  | None -> true
  | Some (s : Synth.Explore.solution) ->
    Synth.Schedule.is_feasible
      (Synth.Schedule.check tech s.Synth.Explore.binding apps)
    && (Synth.Cost.of_binding tech s.Synth.Explore.binding).Synth.Cost.total
       = s.Synth.Explore.cost.Synth.Cost.total

(* Every job count returns a sound binding, and that binding is the
   oracle's — so the job counts also agree with one another. *)
let prop_explore_differential =
  QCheck.Test.make ~name:"explore: par == seq (200 workloads)" ~count:200
    QCheck.(pair (int_range 4 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let tech, apps = Harness.random_mixed_instance ~n ~seed in
      let oracle = oracle_answer tech apps in
      List.for_all
        (fun jobs ->
          let s = Synth.Explore.optimal ~jobs tech apps in
          sound tech apps s && Harness.explore_answer s = oracle)
        Harness.all_jobs)

(* Tie-prone workloads, n = 1–10: every job count returns the same
   binding, cold or warm-started from another optimum of equal cost,
   and for n <= 9 that binding is the brute-force lex-least optimum. *)
let prop_explore_ties =
  QCheck.Test.make ~name:"explore: tie-prone bindings are canonical"
    ~count:200
    QCheck.(pair (int_range 1 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let tech, apps = Harness.tie_prone_instance ~n ~seed in
      let cold jobs =
        let s = Synth.Explore.optimal ~jobs tech apps in
        if sound tech apps s then Harness.explore_answer s
        else QCheck.Test.fail_reportf "unsound binding at jobs=%d" jobs
      in
      let answer = cold 1 in
      let warm =
        match Harness.other_optimum tech apps with
        | Some b -> Some b
        | None ->
          Option.map
            (fun (s : Synth.Explore.solution) -> s.Synth.Explore.binding)
            (Synth.Explore.optimal ~jobs:2 tech apps)
      in
      let warm_answer jobs =
        Harness.explore_answer
          (Result.to_option (Synth.Explore.solve ~jobs ?warm tech apps))
      in
      Harness.agree cold
      && List.for_all (fun jobs -> warm_answer jobs = answer) Harness.all_jobs
      && (n > 9 || answer = oracle_answer tech apps))

let prop_multi_differential =
  QCheck.Test.make ~name:"multi: par == seq (200 workloads)" ~count:200
    QCheck.(triple (int_range 4 7) (int_range 1 2) (int_range 0 100_000))
    (fun (n, n_cpu, seed) ->
      let tech, procs, apps = Harness.random_multi_instance ~n ~n_cpu ~seed in
      Harness.agree (fun jobs ->
          Harness.multi_answer (Synth.Multi.optimal ~jobs tech procs apps)))

let prop_multi_ties =
  QCheck.Test.make ~name:"multi: tie-prone bindings are canonical" ~count:200
    QCheck.(triple (int_range 1 7) (int_range 1 3) (int_range 0 100_000))
    (fun (n, n_cpu, seed) ->
      let tech, procs, apps = Harness.tie_prone_multi_instance ~n ~n_cpu ~seed in
      let answer jobs = Harness.multi_answer (Synth.Multi.optimal ~jobs tech procs apps) in
      Harness.agree answer
      && Option.map
           (fun (c, b, _) -> (c, b))
           (answer 1)
         = Option.map
             (fun (c, b) -> (c, Harness.multi_binding_str b))
             (Harness.lex_least_multi tech procs apps))

(* Superposition forwards [jobs] to per-application {!Explore.optimal}
   calls, each canonical, so the whole superposition — per-application
   answers, merged binding, conflicts and total — is identical for every
   job count. *)
let superpose_answer =
  Option.map (fun (r : Synth.Superpose.result) ->
      ( List.map
          (fun (name, s) -> (name, Harness.explore_answer (Some s)))
          r.Synth.Superpose.per_app,
        Harness.binding_str r.Synth.Superpose.merged,
        List.map Spi.Ids.Process_id.to_string r.Synth.Superpose.conflicts,
        r.Synth.Superpose.cost.Synth.Cost.total ))

(* Each conflict names a process the merged binding maps to hardware
   (the software copy rides the shared CPU). *)
let conflicts_in_hw = function
  | None -> true
  | Some (r : Synth.Superpose.result) ->
    List.for_all
      (fun c ->
        Synth.Binding.impl_of c r.Synth.Superpose.merged = Some Synth.Binding.Hw)
      r.Synth.Superpose.conflicts

let prop_superpose_differential =
  QCheck.Test.make ~name:"superpose: par == seq (200 workloads)" ~count:200
    QCheck.(triple bool (int_range 4 8) (int_range 0 100_000))
    (fun (ties, n, seed) ->
      let tech, apps =
        if ties then Harness.tie_prone_instance ~n ~seed
        else Harness.random_instance ~n ~seed
      in
      let runs =
        List.map
          (fun jobs -> Synth.Superpose.superpose ~jobs tech apps)
          Harness.all_jobs
      in
      let first = superpose_answer (List.hd runs) in
      List.for_all
        (fun r -> conflicts_in_hw r && superpose_answer r = first)
        runs)

(* Capacities for the frontier sweeps: 0 (only all-hardware bindings
   fit), small, the default and large — the sweep must end at load 0
   and at capacity 0 as well as where the default capacity stops it. *)
let arb_capacity =
  QCheck.oneofl [ 0; 40; Synth.Schedule.default_capacity; 400 ]

(* The frontier for every job count equals the brute-force oracle's —
   vectors and representative bindings. *)
let pareto_matches_oracle ~capacity tech apps =
  let answer jobs =
    Harness.pareto_answer (Synth.Pareto.frontier ~jobs ~capacity tech apps)
  in
  Harness.agree answer
  && answer 1
     = List.map
         (fun (c, l, b) -> (c, l, Harness.binding_str b))
         (Harness.pareto_oracle ~capacity tech apps)

let prop_pareto_differential =
  QCheck.Test.make ~name:"pareto: par == seq (200 workloads)" ~count:200
    QCheck.(triple (int_range 4 6) (int_range 0 100_000) arb_capacity)
    (fun (n, seed, capacity) ->
      let tech, apps = Harness.random_instance ~n ~seed in
      pareto_matches_oracle ~capacity tech apps)

(* Pareto keeps the lex-least binding as the representative of each
   objective vector, whatever the job count. *)
let prop_pareto_ties =
  QCheck.Test.make ~name:"pareto: tie-prone representatives are canonical"
    ~count:200
    QCheck.(triple (int_range 1 8) (int_range 0 100_000) arb_capacity)
    (fun (n, seed, capacity) ->
      let tech, apps = Harness.tie_prone_instance ~n ~seed in
      pareto_matches_oracle ~capacity tech apps)

(* A frontier far too large to enumerate leaf by leaf: 26 processes at
   capacity 120.  It opens at the explorer's optimum and closes with
   the all-hardware point at load 0, the same for both job counts. *)
let test_pareto_figure2_gen_medium () =
  let tech, apps = Harness.figure2_gen_medium () in
  let capacity = 120 in
  let frontier jobs = Synth.Pareto.frontier ~jobs ~capacity tech apps in
  let f = frontier 1 in
  let points = f.Synth.Pareto.points in
  Alcotest.(check bool) "not degraded" false f.Synth.Pareto.degraded;
  Alcotest.(check int) "points" 64 (List.length points);
  let optimum = Synth.Explore.optimal_exn ~capacity tech apps in
  let first = List.hd points and last = List.hd (List.rev points) in
  Alcotest.(check (triple int int string))
    "first = the optimum"
    ( optimum.Synth.Explore.cost.Synth.Cost.total,
      optimum.Synth.Explore.worst_load,
      Harness.binding_str optimum.Synth.Explore.binding )
    ( first.Synth.Pareto.total_cost,
      first.Synth.Pareto.worst_load,
      Harness.binding_str first.Synth.Pareto.binding );
  Alcotest.(check (pair int int)) "first" (728, 120)
    (first.Synth.Pareto.total_cost, first.Synth.Pareto.worst_load);
  Alcotest.(check (pair int int)) "last" (3301, 0)
    (last.Synth.Pareto.total_cost, last.Synth.Pareto.worst_load);
  Alcotest.(check bool) "jobs=2 agrees" true
    (Harness.pareto_answer f = Harness.pareto_answer (frontier 2))

(* --------------------- scheduler regression tests ------------------- *)

let steals_total = Obs.Registry.counter "par.steals"

(* Deterministic forced steal: one seed task pushes children and then
   refuses to finish until one of them has run.  The owner is stuck
   inside the seed, the cursor is exhausted, so the only way a child can
   run is a steal by the other worker.  Termination is guaranteed: the
   second worker parks in the steal loop (pending > 0) and its next
   sweep finds the victim deque non-empty. *)
let test_forced_steal () =
  let before = Obs.Metric.value steals_total in
  let total = Harness.force_steals ~jobs:2 ~children:8 () in
  Alcotest.(check int) "all tasks ran" 9 total;
  Alcotest.(check bool) "at least one steal recorded" true
    (Obs.Metric.value steals_total - before >= 1)

(* Prompt cancellation: once a task raises, claimed-but-unrun tasks are
   skipped.  Sequentially this is exact: seeds run in order, seed 3
   raises, seeds 4.. are claimed and cancelled, so exactly 3 tasks
   complete. *)
exception Boom

let test_cancellation_seq () =
  let ran = Atomic.make 0 in
  (match
     Synth.Par.fold ~jobs:1
       ~init:(fun () -> ())
       ~merge:(fun () () -> ())
       ~f:(fun _ctx () i ->
         if i = 3 then raise Boom else Atomic.incr ran)
       (Array.init 100 Fun.id)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "tasks after the failure are cancelled" 3
    (Atomic.get ran)

(* Parallel: tasks block until the failing task has announced itself,
   so only tasks already in flight at failure time can complete — a
   bounded handful, never the whole array. *)
let test_cancellation_par () =
  let n = 200 in
  let announced = Atomic.make false in
  let ran = Atomic.make 0 in
  (match
     Synth.Par.map ~jobs:4
       (fun i ->
         if i = 0 then begin
           Atomic.set announced true;
           raise Boom
         end
         else begin
           while not (Atomic.get announced) do
             Domain.cpu_relax ()
           done;
           Atomic.incr ran
         end)
       (Array.init n Fun.id)
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check bool)
    (Format.sprintf "only in-flight tasks completed (%d)" (Atomic.get ran))
    true
    (Atomic.get ran < 16)

(* Deque overflow: pushes beyond the per-worker capacity are refused
   (the caller runs the task inline) and counted, never silently
   dropped.  jobs=1 keeps it deterministic. *)
let test_push_overflow () =
  let overflows = Obs.Registry.counter "par.deque_overflows" in
  let before = Obs.Metric.value overflows in
  let accepted = ref 0 and refused = ref 0 in
  let ran =
    Synth.Par.fold ~jobs:1
      ~init:(fun () -> 0)
      ~merge:( + )
      ~f:(fun ctx acc -> function
        | `Seed ->
          for _ = 1 to 400 do
            if Synth.Par.push ctx `Child then incr accepted else incr refused
          done;
          acc + 1
        | `Child -> acc + 1)
      [| `Seed |]
  in
  Alcotest.(check bool) "capacity bounded" true (!refused > 0);
  Alcotest.(check int) "accepted pushes all ran" (!accepted + 1) ran;
  Alcotest.(check int) "overflows counted" !refused
    (Obs.Metric.value overflows - before)

(* Every accepted push runs exactly once even under heavy stealing:
   checksum of task payloads is conserved across 8 workers. *)
let test_no_lost_tasks () =
  let rng = Harness.seeded 42 in
  let payload = Array.init 64 (fun _ -> Random.State.int rng 1_000_000) in
  let expected = Array.fold_left ( + ) 0 payload in
  let extra = Atomic.make 0 in
  let sum =
    Synth.Par.fold ~jobs:8
      ~init:(fun () -> 0)
      ~merge:( + )
      ~f:(fun ctx acc (v, depth) ->
        (* re-split: spread value over two children while splitting *)
        if depth < 6 && v mod 2 = 0 && Synth.Par.push ctx (v / 2, depth + 1) then begin
          ignore (Atomic.fetch_and_add extra 1);
          acc + (v - (v / 2))
        end
        else acc + v)
      (Array.map (fun v -> (v, 0)) payload)
  in
  Alcotest.(check int) "checksum conserved across steals" expected sum;
  Alcotest.(check bool) "re-splitting happened" true (Atomic.get extra > 0)

let suite =
  ( "worksteal",
    [
      QCheck_alcotest.to_alcotest prop_explore_differential;
      QCheck_alcotest.to_alcotest prop_explore_ties;
      QCheck_alcotest.to_alcotest prop_multi_differential;
      QCheck_alcotest.to_alcotest prop_multi_ties;
      QCheck_alcotest.to_alcotest prop_superpose_differential;
      QCheck_alcotest.to_alcotest prop_pareto_differential;
      QCheck_alcotest.to_alcotest prop_pareto_ties;
      Alcotest.test_case "pareto: figure2-gen-medium frontier" `Quick
        test_pareto_figure2_gen_medium;
      Alcotest.test_case "forced steal" `Quick test_forced_steal;
      Alcotest.test_case "cancellation, sequential" `Quick
        test_cancellation_seq;
      Alcotest.test_case "cancellation, parallel" `Quick test_cancellation_par;
      Alcotest.test_case "push overflow is counted" `Quick test_push_overflow;
      Alcotest.test_case "no lost tasks under stealing" `Quick
        test_no_lost_tasks;
    ] )

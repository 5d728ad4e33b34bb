(* Tests for the exploration pool: identical answers (cost and binding)
   for every job count on random instances, counter aggregation, and
   the structured diagnostics of {!Synth.Explore.solve}. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = I.Process_id.of_string

(* Workload builders live in the shared {!Harness}. *)
let random_instance = Harness.random_instance

(* The whole answer — cost, binding, worst load — must be identical for
   every job count, it must be the brute-force lex-least optimum, and
   the binding must be feasible at the reported cost.  n = 1–3 rows
   exercise the clamped split (a single root task). *)
let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"jobs=2/4 find the sequential optimum" ~count:40
    QCheck.(pair (int_range 1 10) (int_range 0 1000))
    (fun (n, seed) ->
      let tech, apps = random_instance ~n ~seed in
      let seq = Synth.Explore.optimal ~jobs:1 tech apps in
      List.for_all
        (fun jobs ->
          let par = Synth.Explore.optimal ~jobs tech apps in
          Harness.explore_answer par = Harness.explore_answer seq
          &&
          match par with
          | None -> true
          | Some p ->
            Synth.Schedule.is_feasible
              (Synth.Schedule.check tech p.Synth.Explore.binding apps)
            && (Synth.Cost.of_binding tech p.Synth.Explore.binding)
                 .Synth.Cost.total = p.Synth.Explore.cost.Synth.Cost.total)
        [ 2; 4 ]
      && (n > 9
         || Option.map
              (fun (s : Synth.Explore.solution) ->
                (s.Synth.Explore.cost.Synth.Cost.total,
                 Harness.binding_str s.Synth.Explore.binding))
              seq
            = Option.map
                (fun (c, b) -> (c, Harness.binding_str b))
                (Harness.lex_least_optimum tech apps)))

(* Problems of 0–3 processes split into a single root task; every job
   count must still return the lex-least optimum. *)
let test_tiny_problems () =
  for n = 0 to 3 do
    for seed = 0 to 49 do
      let tech, apps = Harness.tie_prone_instance ~n ~seed in
      let expected =
        Option.map
          (fun (c, b) -> (c, Harness.binding_str b))
          (Harness.lex_least_optimum tech apps)
      in
      List.iter
        (fun jobs ->
          Alcotest.(check (option (pair int string)))
            (Format.sprintf "n=%d seed=%d jobs=%d" n seed jobs)
            expected
            (Option.map
               (fun (s : Synth.Explore.solution) ->
                 (s.Synth.Explore.cost.Synth.Cost.total,
                  Harness.binding_str s.Synth.Explore.binding))
               (Synth.Explore.optimal ~jobs tech apps)))
        Harness.all_jobs
    done
  done

let test_parallel_counters () =
  let tech, apps = random_instance ~n:10 ~seed:7 in
  match Synth.Explore.optimal ~jobs:4 tech apps with
  | None -> Alcotest.fail "instance expected feasible"
  | Some s ->
    Alcotest.(check bool)
      "explored nodes aggregated across domains" true
      (s.Synth.Explore.explored > 0);
    Alcotest.(check bool) "pruning happened" true (s.Synth.Explore.pruned > 0)

let test_jobs_validation () =
  let tech, apps = random_instance ~n:5 ~seed:3 in
  (try
     ignore (Synth.Explore.optimal ~jobs:(-1) tech apps);
     Alcotest.fail "negative jobs accepted"
   with Invalid_argument _ -> ());
  (* jobs=0 resolves to the recommended domain count *)
  match
    (Synth.Explore.optimal ~jobs:0 tech apps, Synth.Explore.optimal tech apps)
  with
  | Some a, Some b ->
    Alcotest.(check int) "jobs=0 cost" b.Synth.Explore.cost.Synth.Cost.total
      a.Synth.Explore.cost.Synth.Cost.total
  | _ -> Alcotest.fail "instance expected feasible"

(* ------------------------- diagnostics ----------------------------- *)

let diagnostic =
  Alcotest.testable Synth.Explore.pp_diagnostic (fun a b ->
      match (a, b) with
      | Synth.Explore.Infeasible, Synth.Explore.Infeasible -> true
      | ( Synth.Explore.Pinned_impl_unavailable a,
          Synth.Explore.Pinned_impl_unavailable b ) ->
        I.Process_id.equal a.process b.process && a.impl = b.impl
      | _ -> false)

let solution_cost = Alcotest.testable Synth.Explore.pp_solution (fun _ _ -> true)

let result_t = Alcotest.result solution_cost diagnostic

let test_pinned_impl_unavailable () =
  let x = pid "x" and y = pid "y" in
  let tech =
    Synth.Tech.make
      [
        (x, Synth.Tech.sw_only ~load:10);
        (y, Synth.Tech.both ~load:10 ~area:5);
      ]
  in
  let apps = [ Synth.App.make "a" [ x; y ] ] in
  (* pinning x to hardware is unsatisfiable: its entry has no hw option *)
  let fixed = Synth.Binding.of_list [ (x, Synth.Binding.Hw) ] in
  Alcotest.check result_t "names the pinned process and impl"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = x; impl = Synth.Binding.Hw }))
    (Synth.Explore.solve ~fixed tech apps);
  (* the mirror image: pinning a hw-only process to software *)
  let tech_hw =
    Synth.Tech.make
      [ (x, Synth.Tech.hw_only ~area:7); (y, Synth.Tech.both ~load:10 ~area:5) ]
  in
  let fixed_sw = Synth.Binding.of_list [ (x, Synth.Binding.Sw) ] in
  Alcotest.check result_t "sw pin on hw-only process"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = x; impl = Synth.Binding.Sw }))
    (Synth.Explore.solve ~fixed:fixed_sw tech_hw apps)

let test_genuinely_infeasible_is_distinct () =
  (* a software-only process whose load exceeds any capacity is a
     capacity infeasibility, not a pinning error *)
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:200) ] in
  let apps = [ Synth.App.make "a" [ pid "x" ] ] in
  Alcotest.check result_t "plain Infeasible" (Error Synth.Explore.Infeasible)
    (Synth.Explore.solve tech apps);
  (* the parallel path reports the same diagnostic *)
  let tech5 =
    Synth.Tech.make
      (List.init 5 (fun i ->
           (pid (Format.sprintf "x%d" i), Synth.Tech.sw_only ~load:200)))
  in
  let apps5 =
    [ Synth.App.make "a" (List.init 5 (fun i -> pid (Format.sprintf "x%d" i))) ]
  in
  Alcotest.check result_t "parallel path Infeasible"
    (Error Synth.Explore.Infeasible)
    (Synth.Explore.solve ~jobs:4 tech5 apps5)

let test_pinned_diagnostic_parallel () =
  (* validation fires before the domain pool spins up *)
  let xs = List.init 6 (fun i -> pid (Format.sprintf "x%d" i)) in
  let tech =
    Synth.Tech.make
      (List.map
         (fun p ->
           if I.Process_id.equal p (List.hd xs) then
             (p, Synth.Tech.sw_only ~load:5)
           else (p, Synth.Tech.both ~load:5 ~area:10))
         xs)
  in
  let apps = [ Synth.App.make "a" xs ] in
  let fixed = Synth.Binding.of_list [ (List.hd xs, Synth.Binding.Hw) ] in
  Alcotest.check result_t "jobs=4 pinning diagnostic"
    (Error
       (Synth.Explore.Pinned_impl_unavailable
          { process = List.hd xs; impl = Synth.Binding.Hw }))
    (Synth.Explore.solve ~jobs:4 ~fixed tech apps)

let test_table1_parallel () =
  (* the canonical Table 1 optimum survives every job count *)
  List.iter
    (fun jobs ->
      let s = Synth.Explore.optimal_exn ~jobs F2.table1_tech [ F2.app1; F2.app2 ] in
      Alcotest.(check int)
        (Format.sprintf "jobs=%d" jobs)
        41 s.Synth.Explore.cost.Synth.Cost.total;
      Alcotest.(check string)
        (Format.sprintf "jobs=%d binding" jobs)
        "PA:HW, PB:SW, cluster:g1:SW, cluster:g2:SW"
        (Harness.binding_str s.Synth.Explore.binding))
    Harness.all_jobs

(* Table 1 with PA's hardware area raised to 30 ties at cost 45:
   {PA:HW} (30 + 15) and {PA:SW, PB:HW} (15 + 30).  The decision order
   is PA < PB < cluster:g1 < cluster:g2 and SW precedes HW, so the
   canonical answer puts PA in software — for every job count, and warm
   from the other optimum too. *)
let test_table1_tie () =
  let tech =
    Synth.Tech.with_options F2.pa (Synth.Tech.both ~load:40 ~area:30)
      F2.table1_tech
  in
  let apps = [ F2.app1; F2.app2 ] in
  let canonical = "PA:SW, PB:HW, cluster:g1:SW, cluster:g2:SW" in
  let other =
    Synth.Binding.of_list
      [
        (F2.pa, Synth.Binding.Hw); (F2.pb, Synth.Binding.Sw);
        (F2.unit_g1, Synth.Binding.Sw); (F2.unit_g2, Synth.Binding.Sw);
      ]
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun (how, warm) ->
          match Synth.Explore.solve ~jobs ?warm tech apps with
          | Error _ -> Alcotest.fail "feasible instance"
          | Ok s ->
            Alcotest.(check (pair int string))
              (Format.sprintf "jobs=%d %s" jobs how)
              (45, canonical)
              (s.Synth.Explore.cost.Synth.Cost.total,
               Harness.binding_str s.Synth.Explore.binding))
        [ ("cold", None); ("warm from {PA:HW}", Some other) ])
    Harness.all_jobs

(* The jobs=1 work counts are deterministic: any change to the search —
   its order, its pruning, its split — moves them.  Pinned on Table 1
   and on fixed-seed generated instances. *)
let test_sequential_counts_pinned () =
  let cases =
    [
      ("table1", (F2.table1_tech, [ F2.app1; F2.app2 ]), (7, 8));
      ("random n14 s1", Harness.random_instance ~n:14 ~seed:1, (613, 612));
      ("random n14 s2", Harness.random_instance ~n:14 ~seed:2, (172, 171));
      ("random n20 s11", Harness.random_instance ~n:20 ~seed:11, (1524, 1523));
      ("random n20 s12", Harness.random_instance ~n:20 ~seed:12, (2452, 2449));
      ("mixed n16 s4", Harness.random_mixed_instance ~n:16 ~seed:4, (18, 11));
      ("mixed n22 s15", Harness.random_mixed_instance ~n:22 ~seed:15, (107, 105));
      ("tie-prone n10 s7", Harness.tie_prone_instance ~n:10 ~seed:7, (52, 33));
      ("tie-prone n10 s8", Harness.tie_prone_instance ~n:10 ~seed:8, (42, 30));
    ]
  in
  List.iter
    (fun (name, (tech, apps), expected) ->
      let s = Synth.Explore.optimal_exn ~jobs:1 tech apps in
      Alcotest.(check (pair int int))
        (name ^ " explored/pruned") expected
        (s.Synth.Explore.explored, s.Synth.Explore.pruned))
    cases

let suite =
  ( "explore-parallel",
    [
      QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
      Alcotest.test_case "counters aggregated" `Quick test_parallel_counters;
      Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
      Alcotest.test_case "pinned impl unavailable" `Quick
        test_pinned_impl_unavailable;
      Alcotest.test_case "infeasible stays distinct" `Quick
        test_genuinely_infeasible_is_distinct;
      Alcotest.test_case "pinned diagnostic, parallel" `Quick
        test_pinned_diagnostic_parallel;
      Alcotest.test_case "table1 across job counts" `Quick test_table1_parallel;
      Alcotest.test_case "table1 tie at PA area 30" `Quick test_table1_tie;
      Alcotest.test_case "tiny problems (n = 0-3)" `Quick test_tiny_problems;
      Alcotest.test_case "jobs=1 work counts pinned" `Quick
        test_sequential_counts_pinned;
    ] )

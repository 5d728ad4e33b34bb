(* Tests for multi-processor partitioning, including consistency with
   the single-processor explorer and VCD export sanity. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = Harness.pid

let test_single_cpu_matches_explore () =
  (* one processor with the default capacity and cost 15 must reproduce
     the Table 1 variant-aware optimum *)
  let cpu = Synth.Multi.processor ~name:"cpu0" ~capacity:100 ~cost:15 in
  match Synth.Multi.optimal F2.table1_tech [ cpu ] [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "solution expected"
  | Some s ->
    Alcotest.(check int) "same optimum as Explore" 41 s.Synth.Multi.total_cost;
    let simple = Synth.Multi.to_simple s.Synth.Multi.binding in
    Alcotest.(check (option bool))
      "PA in HW" (Some true)
      (Option.map (fun i -> i = Synth.Binding.Hw) (Synth.Binding.impl_of F2.pa simple))

let heavy_tech =
  (* two software-only processes, each loading 80: a single CPU of
     capacity 100 cannot host both *)
  Synth.Tech.make
    [
      (pid "x", Synth.Tech.sw_only ~load:80);
      (pid "y", Synth.Tech.sw_only ~load:80);
    ]

let both = Synth.App.make "both" [ pid "x"; pid "y" ]

let test_second_processor_needed () =
  let cpu cost name = Synth.Multi.processor ~name ~capacity:100 ~cost in
  (* one CPU: infeasible *)
  Alcotest.(check bool) "one cpu infeasible" true
    (Option.is_none (Synth.Multi.optimal heavy_tech [ cpu 15 "cpu0" ] [ both ]));
  (* two CPUs: feasible, pays both *)
  match Synth.Multi.optimal heavy_tech [ cpu 15 "cpu0"; cpu 20 "cpu1" ] [ both ] with
  | None -> Alcotest.fail "two cpus must suffice"
  | Some s ->
    Alcotest.(check int) "pays both processors" 35 s.Synth.Multi.total_cost;
    Alcotest.(check int) "two used" 2 (List.length s.Synth.Multi.processors_used)

let test_unused_processor_free () =
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:10) ] in
  let app = Synth.App.make "a" [ pid "x" ] in
  let cheap = Synth.Multi.processor ~name:"cheap" ~capacity:100 ~cost:5 in
  let dear = Synth.Multi.processor ~name:"dear" ~capacity:100 ~cost:50 in
  match Synth.Multi.optimal tech [ dear; cheap ] [ app ] with
  | None -> Alcotest.fail "solution expected"
  | Some s ->
    Alcotest.(check int) "only the cheap one" 5 s.Synth.Multi.total_cost;
    Alcotest.(check (list string)) "used" [ "cheap" ]
      (List.map I.Resource_id.to_string s.Synth.Multi.processors_used)

let test_mutual_exclusion_across_cpus () =
  (* variants may share each processor; only shared processes add up *)
  let tech =
    Synth.Tech.make
      [
        (pid "shared", Synth.Tech.sw_only ~load:40);
        (pid "v1", Synth.Tech.sw_only ~load:60);
        (pid "v2", Synth.Tech.sw_only ~load:60);
      ]
  in
  let apps =
    [
      Synth.App.make "a1" [ pid "shared"; pid "v1" ];
      Synth.App.make "a2" [ pid "shared"; pid "v2" ];
    ]
  in
  let cpu = Synth.Multi.processor ~name:"cpu0" ~capacity:100 ~cost:15 in
  match Synth.Multi.optimal tech [ cpu ] apps with
  | None -> Alcotest.fail "mutual exclusion should make one CPU enough"
  | Some s ->
    Alcotest.(check int) "single cpu" 15 s.Synth.Multi.total_cost;
    (match s.Synth.Multi.worst_load with
    | [ (_, load) ] -> Alcotest.(check int) "per-app worst load" 100 load
    | _ -> Alcotest.fail "one processor expected")

let test_heterogeneous_capacity () =
  let tech = Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:80) ] in
  let app = Synth.App.make "a" [ pid "x" ] in
  let small = Synth.Multi.processor ~name:"small" ~capacity:50 ~cost:1 in
  let big = Synth.Multi.processor ~name:"big" ~capacity:100 ~cost:30 in
  match Synth.Multi.optimal tech [ small; big ] [ app ] with
  | None -> Alcotest.fail "big cpu fits"
  | Some s ->
    Alcotest.(check (list string)) "placed on the big one" [ "big" ]
      (List.map I.Resource_id.to_string s.Synth.Multi.processors_used)

(* Job-count consistency over the shared harness builders: every job
   count returns the whole sequential answer (cost, placement, loads),
   that answer is the brute-force lex-least placement, and the reported
   processor set prices to the reported total.  n = 1–3 rows exercise
   the clamped split. *)
let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"multi: parallel finds the sequential optimum"
    ~count:30
    QCheck.(triple (int_range 1 8) (int_range 1 2) (int_range 0 1000))
    (fun (n, n_cpu, seed) ->
      let tech, procs, apps = Harness.random_multi_instance ~n ~n_cpu ~seed in
      let seq = Synth.Multi.optimal ~jobs:1 tech procs apps in
      List.for_all
        (fun jobs ->
          let par = Synth.Multi.optimal ~jobs tech procs apps in
          Harness.multi_answer par = Harness.multi_answer seq
          &&
          match par with
          | None -> true
          | Some p ->
            p.Synth.Multi.asic_area
            + List.fold_left
                (fun acc r ->
                  acc
                  + (match
                       List.find_opt
                         (fun (pr : Synth.Multi.processor) ->
                           I.Resource_id.equal pr.Synth.Multi.id r)
                         procs
                     with
                    | Some pr -> pr.Synth.Multi.cost
                    | None -> max_int))
                0 p.Synth.Multi.processors_used
            = p.Synth.Multi.total_cost)
        [ 2; 4; 8 ]
      && Option.map
           (fun (s : Synth.Multi.solution) ->
             (s.Synth.Multi.total_cost, Harness.multi_binding_str s.Synth.Multi.binding))
           seq
         = Option.map
             (fun (c, b) -> (c, Harness.multi_binding_str b))
             (Harness.lex_least_multi tech procs apps))

let test_processor_validation () =
  (try
     ignore (Synth.Multi.processor ~name:"p" ~capacity:0 ~cost:1);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let cpu = Synth.Multi.processor ~name:"p" ~capacity:10 ~cost:1 in
  try
    ignore (Synth.Multi.optimal heavy_tech [ cpu; cpu ] [ both ]);
    Alcotest.fail "duplicate processor accepted"
  with Invalid_argument _ -> ()

(* ------------------------------- VCD -------------------------------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_vcd_export () =
  let model = Paper.Figure1.model in
  let result =
    Sim.Engine.run ~stimuli:(Paper.Figure1.stimuli_mixed ~n:4) model
  in
  let vcd = Sim.Vcd.of_result model result in
  Alcotest.(check bool) "header" true (contains ~needle:"$timescale" vcd);
  Alcotest.(check bool) "definitions closed" true
    (contains ~needle:"$enddefinitions" vcd);
  Alcotest.(check bool) "process var" true (contains ~needle:"proc_p2" vcd);
  Alcotest.(check bool) "channel var" true (contains ~needle:"chan_c1" vcd);
  Alcotest.(check bool) "dumpvars" true (contains ~needle:"$dumpvars" vcd);
  Alcotest.(check bool) "has timestamps" true (contains ~needle:"#1" vcd);
  (* every binary value line references a declared id code *)
  let lines = String.split_on_char '\n' vcd in
  Alcotest.(check bool) "non-trivial dump" true (List.length lines > 20)

let test_vcd_reconfiguration_marks () =
  let built = Video.System.build Video.System.default_params in
  let stimuli =
    Video.Scenario.switching_demo ~frames:10 ~period:5 ~switches:[ (22, "fB") ] ()
  in
  let result =
    Sim.Engine.run ~configurations:built.Video.System.configurations ~stimuli
      built.Video.System.model
  in
  let vcd = Sim.Vcd.of_result built.Video.System.model result in
  (* the reconfiguration prefix is encoded as value 2 = binary 10 *)
  Alcotest.(check bool) "reconfiguration state present" true
    (contains ~needle:"b10 " vcd)

(* The search loop allocates nothing per node: on a fixed instance of
   more than 100 k expanded nodes, the whole solve — setup, split and
   leaves included — stays under one minor word per expanded node. *)
let test_search_allocation_free () =
  let tech, procs, apps = Harness.random_multi_instance ~n:18 ~n_cpu:2 ~seed:1 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  match Synth.Multi.optimal ~jobs:1 tech procs apps with
  | None -> Alcotest.fail "feasible instance"
  | Some s ->
    let words = Gc.minor_words () -. before in
    let explored = s.Synth.Multi.explored in
    Alcotest.(check bool)
      (Format.sprintf "at least 100k nodes (%d)" explored)
      true (explored >= 100_000);
    Alcotest.(check bool)
      (Format.sprintf "%.0f minor words for %d nodes" words explored)
      true
      (words < float_of_int explored)

let suite =
  ( "multi-vcd",
    [
      Alcotest.test_case "single cpu matches explore" `Quick
        test_single_cpu_matches_explore;
      Alcotest.test_case "second processor needed" `Quick
        test_second_processor_needed;
      Alcotest.test_case "unused processor free" `Quick test_unused_processor_free;
      Alcotest.test_case "mutual exclusion across cpus" `Quick
        test_mutual_exclusion_across_cpus;
      Alcotest.test_case "heterogeneous capacity" `Quick
        test_heterogeneous_capacity;
      Alcotest.test_case "processor validation" `Quick test_processor_validation;
      QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
      Alcotest.test_case "vcd export" `Quick test_vcd_export;
      Alcotest.test_case "vcd reconfiguration marks" `Quick
        test_vcd_reconfiguration_marks;
      Alcotest.test_case "search allocation-free" `Quick
        test_search_allocation_free;
    ] )

(* Tests for the synthesis substrate: technology libraries, bindings,
   schedulability, cost, the branch-and-bound explorer and the
   baselines — including exact reproduction of Table 1. *)

module I = Spi.Ids
module F2 = Paper.Figure2

let pid = I.Process_id.of_string

(* ------------------------------- tech ------------------------------- *)

let test_tech_basics () =
  let tech = F2.table1_tech in
  Alcotest.(check int) "processor cost" 15 (Synth.Tech.processor_cost tech);
  Alcotest.(check bool) "mem" true (Synth.Tech.mem tech F2.pa);
  Alcotest.(check int) "four entries" 4 (List.length (Synth.Tech.process_ids tech));
  let o = Synth.Tech.options_of tech F2.pa in
  Alcotest.(check (option int))
    "PA load" (Some 40)
    (Option.map (fun s -> s.Synth.Tech.load) o.Synth.Tech.sw);
  Alcotest.(check (option int))
    "PA area" (Some 26)
    (Option.map (fun h -> h.Synth.Tech.area) o.Synth.Tech.hw)

let test_tech_validation () =
  (try
     ignore (Synth.Tech.make [ (pid "p", { Synth.Tech.sw = None; hw = None }) ]);
     Alcotest.fail "no-option process accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Synth.Tech.make
          [
            (pid "p", Synth.Tech.sw_only ~load:1);
            (pid "p", Synth.Tech.sw_only ~load:2);
          ]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Synth.Tech.make [ (pid "p", Synth.Tech.sw_only ~load:(-1)) ]);
    Alcotest.fail "negative load accepted"
  with Invalid_argument _ -> ()

let test_tech_of_weights () =
  let pids = [ pid "a"; pid "b" ] in
  let tech = Synth.Tech.of_weights ~weight:(fun _ -> 30) pids in
  let o = Synth.Tech.options_of tech (pid "a") in
  Alcotest.(check (option int))
    "load formula" (Some 15)
    (Option.map (fun s -> s.Synth.Tech.load) o.Synth.Tech.sw);
  Alcotest.(check (option int))
    "area formula" (Some 40)
    (Option.map (fun h -> h.Synth.Tech.area) o.Synth.Tech.hw)

(* ------------------------------ binding ----------------------------- *)

let test_binding () =
  let b =
    Synth.Binding.of_list
      [ (pid "a", Synth.Binding.Sw); (pid "b", Synth.Binding.Hw) ]
  in
  Alcotest.(check int) "cardinal" 2 (Synth.Binding.cardinal b);
  Alcotest.(check bool) "sw set" true
    (I.Process_id.Set.mem (pid "a") (Synth.Binding.sw_processes b));
  Alcotest.(check bool) "hw set" true
    (I.Process_id.Set.mem (pid "b") (Synth.Binding.hw_processes b));
  let b2 = Synth.Binding.of_list [ (pid "c", Synth.Binding.Sw) ] in
  (match Synth.Binding.merge b b2 with
  | Ok m -> Alcotest.(check int) "merged" 3 (Synth.Binding.cardinal m)
  | Error _ -> Alcotest.fail "merge must succeed");
  let conflicting = Synth.Binding.of_list [ (pid "a", Synth.Binding.Hw) ] in
  match Synth.Binding.merge b conflicting with
  | Error [ p ] -> Alcotest.(check string) "conflict on a" "a" (I.Process_id.to_string p)
  | Error ps -> Alcotest.failf "expected one conflict, got %d" (List.length ps)
  | Ok _ -> Alcotest.fail "conflict expected"

(* ----------------------------- schedule ----------------------------- *)

let all_sw app =
  Synth.Binding.of_list
    (List.map
       (fun p -> (p, Synth.Binding.Sw))
       (I.Process_id.Set.elements app.Synth.App.procs))

let test_schedule () =
  let tech = F2.table1_tech in
  (* App1 all software: 40 + 30 + 60 = 130 > 100 *)
  (match Synth.Schedule.check tech (all_sw F2.app1) [ F2.app1 ] with
  | Synth.Schedule.Overload { load; capacity; _ } ->
    Alcotest.(check int) "load" 130 load;
    Alcotest.(check int) "capacity" 100 capacity
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v);
  (* move g1 to hardware: 70 <= 100 *)
  let b =
    Synth.Binding.bind F2.unit_g1 Synth.Binding.Hw (all_sw F2.app1)
  in
  (match Synth.Schedule.check tech b [ F2.app1 ] with
  | Synth.Schedule.Feasible { worst_load; _ } ->
    Alcotest.(check int) "worst load" 70 worst_load
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v);
  (* unbound process detected *)
  match Synth.Schedule.check tech Synth.Binding.empty [ F2.app1 ] with
  | Synth.Schedule.Unbound_process _ -> ()
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v

let test_schedule_mutual_exclusion () =
  let tech = F2.table1_tech in
  (* both variants in software: each application alone fits (if PA,PB in
     hardware), although the summed loads would not *)
  let b =
    Synth.Binding.of_list
      [
        (F2.pa, Synth.Binding.Hw);
        (F2.pb, Synth.Binding.Hw);
        (F2.unit_g1, Synth.Binding.Sw);
        (F2.unit_g2, Synth.Binding.Sw);
      ]
  in
  match Synth.Schedule.check tech b [ F2.app1; F2.app2 ] with
  | Synth.Schedule.Feasible { worst_load; _ } ->
    Alcotest.(check int) "per-app max" 60 worst_load
  | v -> Alcotest.failf "unexpected verdict %a" Synth.Schedule.pp_verdict v

(* ------------------------------- cost ------------------------------- *)

let test_cost () =
  let tech = F2.table1_tech in
  let b =
    Synth.Binding.of_list
      [
        (F2.pa, Synth.Binding.Sw);
        (F2.pb, Synth.Binding.Sw);
        (F2.unit_g1, Synth.Binding.Hw);
      ]
  in
  let c = Synth.Cost.of_binding tech b in
  Alcotest.(check int) "processor" 15 c.Synth.Cost.processor;
  Alcotest.(check int) "total" 34 c.Synth.Cost.total;
  (* all-hardware binding pays no processor *)
  let all_hw =
    Synth.Binding.of_list
      [ (F2.pa, Synth.Binding.Hw); (F2.pb, Synth.Binding.Hw) ]
  in
  let c2 = Synth.Cost.of_binding tech all_hw in
  Alcotest.(check int) "no processor" 0 c2.Synth.Cost.processor;
  Alcotest.(check int) "areas" 56 c2.Synth.Cost.total

(* ------------------------------ explore ----------------------------- *)

let test_table1_exact () =
  let tech = F2.table1_tech in
  let s1 = Synth.Explore.optimal_exn tech [ F2.app1 ] in
  let s2 = Synth.Explore.optimal_exn tech [ F2.app2 ] in
  let var = Synth.Explore.optimal_exn tech [ F2.app1; F2.app2 ] in
  let sup =
    match Synth.Superpose.superpose tech [ F2.app1; F2.app2 ] with
    | Some r -> r
    | None -> Alcotest.fail "superposition infeasible"
  in
  Alcotest.(check int) "App1 total" 34 s1.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check int) "App2 total" 38 s2.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check int) "Superposition total" 57 sup.Synth.Superpose.cost.Synth.Cost.total;
  Alcotest.(check int) "With variants total" 41 var.Synth.Explore.cost.Synth.Cost.total;
  (* mapping shapes match the paper rows *)
  Alcotest.(check (option bool))
    "App1: g1 in HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.unit_g1 s1.Synth.Explore.binding));
  Alcotest.(check (option bool))
    "variants: PA in HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.pa var.Synth.Explore.binding));
  Alcotest.(check (option bool))
    "variants: g1 in SW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Sw)
       (Synth.Binding.impl_of F2.unit_g1 var.Synth.Explore.binding))

let prop_explore_matches_bruteforce =
  QCheck.Test.make ~name:"explorer is exact vs brute force" ~count:60
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let pids = List.init n (fun i -> pid (Format.sprintf "w%d" i)) in
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
      (* two overlapping applications over random subsets *)
      let subset () = List.filter (fun _ -> Random.State.bool rng) pids in
      let apps =
        [
          Synth.App.make "a" (match subset () with [] -> [ List.hd pids ] | s -> s);
          Synth.App.make "b" (match subset () with [] -> [ List.hd pids ] | s -> s);
        ]
      in
      let expected = Option.map fst (Harness.lex_least_optimum tech apps) in
      let got =
        Option.map
          (fun (s : Synth.Explore.solution) -> s.Synth.Explore.cost.Synth.Cost.total)
          (Synth.Explore.optimal tech apps)
      in
      expected = got)

let test_explore_fixed () =
  let tech = F2.table1_tech in
  let fixed = Synth.Binding.of_list [ (F2.pa, Synth.Binding.Sw) ] in
  let s = Synth.Explore.optimal_exn ~fixed tech [ F2.app1; F2.app2 ] in
  Alcotest.(check (option bool))
    "PA stays SW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Sw)
       (Synth.Binding.impl_of F2.pa s.Synth.Explore.binding));
  (* with PA pinned to software the optimum moves PB to hardware so the
     variants can still share the processor: 15 + 30 = 45 *)
  Alcotest.(check int) "pinned optimum" 45 s.Synth.Explore.cost.Synth.Cost.total;
  Alcotest.(check (option bool))
    "PB moves to HW" (Some true)
    (Option.map (fun i -> i = Synth.Binding.Hw)
       (Synth.Binding.impl_of F2.pb s.Synth.Explore.binding))

let test_explore_infeasible () =
  let tech =
    Synth.Tech.make [ (pid "x", Synth.Tech.sw_only ~load:200) ]
  in
  Alcotest.(check bool) "no feasible binding" true
    (Option.is_none (Synth.Explore.optimal tech [ Synth.App.make "a" [ pid "x" ] ]))

(* ---------------------------- baselines ----------------------------- *)

let test_serial_all_in_one () =
  match Synth.Serial.all_in_one F2.table1_tech [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "all-in-one should be feasible"
  | Some s ->
    (* serialized loads lose mutual exclusion: optimum is superposition-like *)
    Alcotest.(check int) "cost" 57 s.Synth.Explore.cost.Synth.Cost.total

let test_serial_incremental () =
  let results = Synth.Serial.all_orders F2.table1_tech [ F2.app1; F2.app2 ] in
  Alcotest.(check int) "two orders" 2 (List.length results);
  List.iter
    (fun (r : Synth.Serial.incremental_result) ->
      Alcotest.(check bool) "feasible" true r.feasible;
      (* incremental never beats the variant-aware optimum *)
      Alcotest.(check bool) "not better than optimal" true
        (r.cost.Synth.Cost.total >= 41))
    results;
  match Synth.Serial.cost_spread results with
  | Some (best, worst) ->
    Alcotest.(check bool) "spread ordered" true (best <= worst)
  | None -> Alcotest.fail "spread expected"

let test_design_time () =
  let apps = [ F2.app1; F2.app2 ] in
  Alcotest.(check int) "independent" 6 (Synth.Design_time.decisions_independent apps);
  Alcotest.(check int) "variant aware" 4
    (Synth.Design_time.decisions_variant_aware apps);
  Alcotest.(check bool) "speedup > 1" true (Synth.Design_time.speedup apps > 1.0);
  Alcotest.(check int) "time model" 25
    (Synth.Design_time.time ~effort_per_decision:6 ~fixed_overhead:1 ~decisions:4 ())

let test_superpose_per_app () =
  match Synth.Superpose.superpose F2.table1_tech [ F2.app1; F2.app2 ] with
  | None -> Alcotest.fail "superposition expected"
  | Some r ->
    Alcotest.(check int) "two per-app solutions" 2 (List.length r.Synth.Superpose.per_app);
    Alcotest.(check int) "no conflicts" 0 (List.length r.Synth.Superpose.conflicts)

let prop_variant_aware_never_worse =
  QCheck.Test.make ~name:"variant-aware <= superposition" ~count:60
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pids = List.init 5 (fun i -> pid (Format.sprintf "p%d" i)) in
      let tech =
        Synth.Tech.make
          (List.map
             (fun p ->
               ( p,
                 Synth.Tech.both
                   ~load:(10 + Random.State.int rng 50)
                   ~area:(10 + Random.State.int rng 50) ))
             pids)
      in
      let shared = [ List.nth pids 0; List.nth pids 1 ] in
      let apps =
        [
          Synth.App.make "a" (List.nth pids 2 :: shared);
          Synth.App.make "b" (List.nth pids 3 :: List.nth pids 4 :: shared);
        ]
      in
      match Synth.Superpose.superpose tech apps, Synth.Explore.optimal tech apps with
      | Some sup, Some var ->
        var.Synth.Explore.cost.Synth.Cost.total
        <= sup.Synth.Superpose.cost.Synth.Cost.total
      | None, _ -> true (* single app infeasible: nothing to compare *)
      | Some _, None -> false (* superposable implies feasible *))

let suite =
  ( "synth",
    [
      Alcotest.test_case "tech basics" `Quick test_tech_basics;
      Alcotest.test_case "tech validation" `Quick test_tech_validation;
      Alcotest.test_case "tech of_weights" `Quick test_tech_of_weights;
      Alcotest.test_case "binding" `Quick test_binding;
      Alcotest.test_case "schedule" `Quick test_schedule;
      Alcotest.test_case "schedule mutual exclusion" `Quick
        test_schedule_mutual_exclusion;
      Alcotest.test_case "cost" `Quick test_cost;
      Alcotest.test_case "Table 1 exact" `Quick test_table1_exact;
      Alcotest.test_case "explore with fixed bindings" `Quick test_explore_fixed;
      Alcotest.test_case "explore infeasible" `Quick test_explore_infeasible;
      Alcotest.test_case "serial all-in-one" `Quick test_serial_all_in_one;
      Alcotest.test_case "serial incremental" `Quick test_serial_incremental;
      Alcotest.test_case "design time" `Quick test_design_time;
      Alcotest.test_case "superpose per-app" `Quick test_superpose_per_app;
      QCheck_alcotest.to_alcotest ~long:false prop_explore_matches_bruteforce;
      QCheck_alcotest.to_alcotest ~long:false prop_variant_aware_never_worse;
    ] )

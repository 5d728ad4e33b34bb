(* Tests for the sensitivity analysis of the optimal mapping. *)

module F2 = Paper.Figure2
module S = Synth.Sensitivity

let apps = [ F2.app1; F2.app2 ]

let test_pa_area_flip () =
  (* In the Table 1 optimum PA is in hardware (area 26, total 26 + 15 =
     41).  The best mapping with PA in software moves PB to hardware
     instead (15 + 30 = 45, with PA and both clusters sharing the
     processor).  At PA area 30 the two tie at 45: {PA:HW} and
     {PA:SW, PB:HW}.  The explorers break ties by the lexicographically
     least decision vector — decisions in pid order, "PA" < "PB" <
     "cluster:g1" < "cluster:g2", with SW before HW — and the vectors
     first differ at PA, so the tie goes to PA in software: the flip
     is at 30, not at 31 where {PA:SW, PB:HW} wins on cost alone. *)
  match
    S.flip_point ~parameter:S.Hw_area ~range:(26, 60) F2.table1_tech apps F2.pa
  with
  | Some flip ->
    Alcotest.(check int) "flip at 30" 30 flip.S.at;
    Alcotest.(check bool) "HW below" true (flip.S.below = Synth.Binding.Hw);
    Alcotest.(check (option bool))
      "SW above" (Some true)
      (Option.map (fun i -> i = Synth.Binding.Sw) flip.S.above)
  | None -> Alcotest.fail "flip expected"

let test_stable_decision () =
  (* PB is in software; raising its area only reinforces that *)
  Alcotest.(check bool) "no flip for PB area" true
    (Option.is_none
       (S.flip_point ~parameter:S.Hw_area ~range:(30, 200) F2.table1_tech apps F2.pb))

let test_load_flip () =
  (* PB is in software at load 30; as its load grows, keeping both
     clusters in software next to it becomes impossible and PB moves to
     hardware *)
  match
    S.flip_point ~parameter:S.Sw_load ~range:(30, 100) F2.table1_tech apps F2.pb
  with
  | Some flip ->
    Alcotest.(check bool) "SW below" true (flip.S.below = Synth.Binding.Sw);
    Alcotest.(check bool) "flips somewhere above 30" true (flip.S.at > 30)
  | None -> Alcotest.fail "flip expected"

let test_missing_option () =
  let pid = Spi.Ids.Process_id.of_string "swonly" in
  let tech = Synth.Tech.make [ (pid, Synth.Tech.sw_only ~load:10) ] in
  Alcotest.(check bool) "no hw option, no sweep" true
    (Option.is_none
       (S.flip_point ~parameter:S.Hw_area ~range:(1, 50) tech
          [ Synth.App.make "a" [ pid ] ]
          pid))

let test_flip_matches_linear_scan () =
  (* the binary search agrees with an exhaustive scan *)
  let range = (26, 60) in
  let scan () =
    let lo, hi = range in
    let impl v =
      let tech =
        Synth.Tech.with_options F2.pa (Synth.Tech.both ~load:40 ~area:v)
          F2.table1_tech
      in
      Option.bind (Synth.Explore.optimal tech apps) (fun s ->
          Synth.Binding.impl_of F2.pa s.Synth.Explore.binding)
    in
    let base = impl lo in
    let rec find v =
      if v > hi then None else if impl v <> base then Some v else find (v + 1)
    in
    find (lo + 1)
  in
  let fast =
    Option.map (fun f -> f.S.at)
      (S.flip_point ~parameter:S.Hw_area ~range F2.table1_tech apps F2.pa)
  in
  Alcotest.(check (option int)) "binary = linear" (scan ()) fast

let suite =
  ( "sensitivity",
    [
      Alcotest.test_case "PA area flip at 30" `Quick test_pa_area_flip;
      Alcotest.test_case "stable decision" `Quick test_stable_decision;
      Alcotest.test_case "load flip" `Quick test_load_flip;
      Alcotest.test_case "missing option" `Quick test_missing_option;
      Alcotest.test_case "binary search matches scan" `Quick
        test_flip_matches_linear_scan;
    ] )

(* The benchmark's own tests: seeded streams are reproducible and
   seed-dependent, and the answer checker rejects tampered answers. *)

module W = Perfbench.Workload
module J = Obs.Json
module P = Serve.Protocol

let lines kind seed n =
  let w = W.make kind seed in
  List.init n (fun _ -> (w.W.next ()).W.line)

let prefix = function W.Large_model -> 2 | W.Synth_stream | W.Sim_family -> 25

let model_of line =
  match P.parse_request line with
  | Ok { P.op = P.Synthesize { model; _ } | P.Simulate { model; _ }; _ } -> model
  | Ok _ -> Alcotest.fail "unexpected op"
  | Error e -> Alcotest.fail e

let same_seed kind () =
  let a = lines kind 7 (prefix kind) and b = lines kind 7 (prefix kind) in
  Alcotest.(check (list string)) "byte-identical stream" a b

let other_seed kind () =
  let a = List.map model_of (lines kind 7 (prefix kind))
  and b = List.map model_of (lines kind 8 (prefix kind)) in
  List.iter2
    (fun a b -> Alcotest.(check bool) "models differ" false (String.equal a b))
    a b

(* -- tampering --------------------------------------------------------- *)

let answer (r : W.request) =
  let h = Serve.Handler.create ~jobs:1 () in
  match P.parse_request r.W.line with
  | Ok req -> Serve.Handler.handle h ~admitted_ns:(Obs.Clock.now_ns ()) ~queue_depth:0 req
  | Error e -> Alcotest.fail e

let first kind = (W.make kind 3).W.next ()

let set path value json =
  let rec go json = function
    | [] -> value
    | key :: rest -> (
      match json with
      | J.Obj fields ->
        J.Obj (List.map (fun (k, v) -> if String.equal k key then (k, go v rest) else (k, v)) fields)
      | _ -> Alcotest.fail "not an object")
  in
  go json path

let accepted r json = Result.is_ok (Perfbench.Check.check_json r.W.expect json)

let check_rejects name r json =
  Alcotest.(check bool) ("honest answer accepted") true (accepted r (answer r));
  Alcotest.(check bool) (name ^ " rejected") false (accepted r json)

let int_at path json =
  let rec go j = function
    | [] -> Option.get (J.to_int j)
    | k :: rest -> go (Option.get (J.member k j)) rest
  in
  go json path

let tampered_cost () =
  let r = first W.Synth_stream in
  let json = answer r in
  let cost = int_at [ "cost"; "total" ] json in
  check_rejects "changed cost" r (set [ "cost"; "total" ] (J.Int (cost - 1)) json)

let tampered_binding () =
  let r = first W.Synth_stream in
  let json = answer r in
  let flipped =
    match J.member "binding" json with
    | Some (J.List (J.List [ pid; J.String impl ] :: rest)) ->
      J.List
        (J.List [ pid; J.String (if String.equal impl "hw" then "sw" else "hw") ] :: rest)
    | _ -> Alcotest.fail "unexpected binding shape"
  in
  check_rejects "flipped binding" r (set [ "binding" ] flipped json)

let tampered_firings () =
  let r = first W.Sim_family in
  let json = answer r in
  let runs =
    match J.member "runs" json with
    | Some (J.List (run :: rest)) ->
      J.List (set [ "firings" ] (J.Int (int_at [ "firings" ] run + 1)) run :: rest)
    | _ -> Alcotest.fail "unexpected runs shape"
  in
  check_rejects "changed firing count" r (set [ "runs" ] runs json)

let () =
  let per_kind name f =
    List.map (fun k -> Alcotest.test_case (W.name k) `Quick (f k)) W.kinds
    |> fun cases -> (name, cases)
  in
  Alcotest.run "perfbench"
    [
      per_kind "same seed" same_seed;
      per_kind "other seed" other_seed;
      ( "checker",
        [
          Alcotest.test_case "cost" `Quick tampered_cost;
          Alcotest.test_case "binding" `Quick tampered_binding;
          Alcotest.test_case "firings" `Quick tampered_firings;
        ] );
    ]

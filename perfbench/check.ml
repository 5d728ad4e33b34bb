(* Answer checking, outside every timed phase.

   A synthesize answer is re-costed with [Synth.Cost] and re-checked
   against the capacity with [Synth.Schedule]; its cost must equal the
   optimum the generator solved for.  A family simulation answer must
   match [Sim.Engine], the reference oracle, configuration by
   configuration.  The work counts a response reports are returned so
   the daemon's own counters can be cross-checked against them. *)

module J = Obs.Json
module W = Workload

type counts = {
  explored : int;
  pruned : int;
  warm : bool;
  configurations : int;
  splits : int;
  subfamilies : int;
  executed_firings : int;
  shared_firings : int;
}

let zero =
  {
    explored = 0;
    pruned = 0;
    warm = false;
    configurations = 0;
    splits = 0;
    subfamilies = 0;
    executed_firings = 0;
    shared_firings = 0;
  }

let ( let* ) = Result.bind

let int_at path json =
  let rec go j = function
    | [] -> J.to_int j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  match go json path with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing integer %s" (String.concat "." path))

let bool_at name json =
  match Option.bind (J.member name json) J.to_bool with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "missing boolean %s" name)

let expect_eq what ~expected ~got =
  if expected = got then Ok ()
  else Error (Printf.sprintf "%s: expected %d, got %d" what expected got)

let check_synth ~tech ~apps ~capacity ~optimum json =
  let tech = Lazy.force tech in
  let* binding =
    match Option.bind (J.member "binding" json) Synth.Bound_store.binding_of_json with
    | Some b -> Ok b
    | None -> Error "missing or malformed binding"
  in
  let procs = Synth.App.union_procs apps in
  let* () =
    if Spi.Ids.Process_id.Set.for_all (fun p -> Synth.Binding.mem p binding) procs
       && Synth.Binding.cardinal binding = Spi.Ids.Process_id.Set.cardinal procs
    then Ok ()
    else Error "binding does not cover exactly the application processes"
  in
  let* () =
    match Synth.Schedule.check ~capacity tech binding apps with
    | v when Synth.Schedule.is_feasible v -> Ok ()
    | v -> Error (Format.asprintf "binding infeasible: %a" Synth.Schedule.pp_verdict v)
  in
  let recosted = Synth.Cost.total tech binding in
  let* reported = int_at [ "cost"; "total" ] json in
  let* () = expect_eq "reported cost vs re-costed binding" ~expected:recosted ~got:reported in
  let* () =
    expect_eq "cost vs generator optimum" ~expected:(Lazy.force optimum) ~got:recosted
  in
  let* degraded = bool_at "degraded" json in
  let* () = if degraded then Error "degraded answer" else Ok () in
  let* explored = int_at [ "explored" ] json in
  let* pruned = int_at [ "pruned" ] json in
  let* warm = bool_at "warm" json in
  Ok { zero with explored; pruned; warm; configurations = List.length apps }

let check_sim ~oracle json =
  let oracle : W.sim_run array = Lazy.force oracle in
  let* runs =
    match Option.bind (J.member "runs" json) J.to_list with
    | Some l -> Ok (Array.of_list l)
    | None -> Error "missing runs"
  in
  let* configurations = int_at [ "configurations" ] json in
  let* () =
    expect_eq "configurations" ~expected:(Array.length oracle) ~got:configurations
  in
  let* () = expect_eq "runs" ~expected:(Array.length oracle) ~got:(Array.length runs) in
  let rec each i =
    if i = Array.length oracle then Ok ()
    else
      let r = runs.(i) and o = oracle.(i) in
      let* index = int_at [ "configuration" ] r in
      let* () = expect_eq "configuration index" ~expected:i ~got:index in
      let* end_time = int_at [ "end_time" ] r in
      let* () =
        expect_eq (Printf.sprintf "configuration %d end_time" i) ~expected:o.W.end_time
          ~got:end_time
      in
      let* firings = int_at [ "firings" ] r in
      let* () =
        expect_eq (Printf.sprintf "configuration %d firings" i) ~expected:o.W.firings
          ~got:firings
      in
      let* () =
        match Option.bind (J.member "outcome" r) J.to_string_opt with
        | Some s when String.equal s o.W.outcome -> Ok ()
        | Some s -> Error (Printf.sprintf "configuration %d outcome %S, expected %S" i s o.W.outcome)
        | None -> Error "missing outcome"
      in
      each (i + 1)
  in
  let* () = each 0 in
  let* splits = int_at [ "splits" ] json in
  let* subfamilies = int_at [ "subfamilies" ] json in
  let* executed_firings = int_at [ "executed_firings" ] json in
  let* shared_firings = int_at [ "shared_firings" ] json in
  Ok { zero with configurations; splits; subfamilies; executed_firings; shared_firings }

let check_json (expect : W.expect) json =
  match Serve.Protocol.status_of_response json with
  | "ok" -> (
    match expect with
    | W.Synth { tech; apps; capacity; optimum } ->
      check_synth ~tech ~apps ~capacity ~optimum json
    | W.Sim { oracle } -> check_sim ~oracle json)
  | status ->
    let msg =
      Option.value ~default:""
        (Option.bind (J.member "message" json) J.to_string_opt)
    in
    Error (Printf.sprintf "status %s %s" status msg)

let check expect line =
  match J.parse line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok json -> check_json expect json

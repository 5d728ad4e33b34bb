module J = Obs.Json

type run = { jobs : int; wall_s : float; cost : int option }

type workload = {
  w_name : string;
  runs : run list;
  speedup : float;
  sim_speedup : float option;
  family_compiled_speedup : float option;
}

type record = {
  label : string;
  max_jobs : int;
  aggregate_speedup : float;
  workloads : workload list;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Format.sprintf "missing or ill-typed field %S" name)

let run_of_json j =
  let* jobs = field "jobs" J.to_int j in
  let* wall_s = field "wall_s" J.to_float j in
  let cost =
    match J.member "cost" j with
    | Some J.Null | None -> None
    | Some v -> J.to_int v
  in
  Ok { jobs; wall_s; cost }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

(* Optional per-field speedups: records written before the field existed
   simply lack it, and a mixed-version trajectory must stay checkable —
   a missing or ill-typed object yields [None] and the per-field gates
   skip it, they never crash. *)
let optional_speedup name j =
  Option.bind (J.member name j) (fun o ->
      Option.bind (J.member "speedup" o) J.to_float)

let workload_of_json j =
  let* w_name = field "name" J.to_string_opt j in
  let* runs_json = field "runs" J.to_list j in
  let* runs = map_result run_of_json runs_json in
  let* speedup = field "speedup_max_jobs" J.to_float j in
  let sim_speedup = optional_speedup "sim" j in
  let family_compiled_speedup = optional_speedup "family_compiled" j in
  Ok { w_name; runs; speedup; sim_speedup; family_compiled_speedup }

let record_of_json j =
  let* schema = field "schema" J.to_string_opt j in
  if schema <> "bench-explore/v1" then
    Error (Format.sprintf "unexpected schema %S" schema)
  else
    let label =
      Option.value ~default:""
        (Option.bind (J.member "label" j) J.to_string_opt)
    in
    let* max_jobs = field "max_jobs" J.to_int j in
    let* aggregate = field "aggregate" Option.some j in
    let* aggregate_speedup = field "speedup_max_jobs" J.to_float aggregate in
    let* workloads_json = field "workloads" J.to_list j in
    let* workloads = map_result workload_of_json workloads_json in
    Ok { label; max_jobs; aggregate_speedup; workloads }

let records_of_string s =
  let* j = J.parse s in
  match j with
  | J.List records -> map_result record_of_json records
  | _ -> Error "trajectory file is not a JSON array"

let describe r =
  if r.label = "" then Format.sprintf "(unlabelled, %d workloads)" (List.length r.workloads)
  else Format.sprintf "%S (%d workloads)" r.label (List.length r.workloads)

let divergence_failures r =
  List.filter_map
    (fun w ->
      match w.runs with
      | [] | [ _ ] -> None
      | first :: rest ->
        if List.for_all (fun q -> q.cost = first.cost) rest then None
        else
          Some
            (Format.sprintf
               "workload %s: optimal cost differs across job counts (%s)"
               w.w_name
               (String.concat ", "
                  (List.map
                     (fun q ->
                       Format.sprintf "jobs=%d:%s" q.jobs
                         (match q.cost with
                         | Some c -> string_of_int c
                         | None -> "infeasible"))
                     w.runs))))
    r.workloads

let same_workload_set a b =
  let names r = List.sort compare (List.map (fun w -> w.w_name) r.workloads) in
  names a = names b

(* Mean of a per-workload optional speedup over the workloads that carry
   it; [None] when no workload does (old records, pre-field). *)
let mean_speedup get r =
  match List.filter_map get r.workloads with
  | [] -> None
  | vs ->
    Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))

(* Per-field speedup gates (the "sim" compiled-vs-interpreted arm and
   the "family_compiled" one-pass-vs-N-passes arm).  A field is compared only
   when BOTH records carry it over the same workload set: a trajectory
   mixing records from before and after the field was introduced skips
   the gate instead of failing. *)
let field_gate ~tolerance ~field ~get ~baseline ~fresh failures =
  match baseline with
  | None -> Format.sprintf "%s not gated (no baseline)" field
  | Some base when not (same_workload_set base fresh) ->
    Format.sprintf "%s not gated (workload sets differ)" field
  | Some base -> (
    match (mean_speedup get base, mean_speedup get fresh) with
    | Some base_v, Some fresh_v ->
      let floor = (1. -. tolerance) *. base_v in
      if fresh_v < floor then
        failures :=
          !failures
          @ [
              Format.sprintf
                "%s speedup regressed: %.3fx, below %.3fx (%.0f%% of the \
                 baseline's %.3fx)"
                field fresh_v floor
                (100. *. (1. -. tolerance))
                base_v;
            ];
      Format.sprintf "%s speedup %.3fx against a %.3fx floor" field fresh_v
        floor
    | None, _ | _, None ->
      Format.sprintf "%s not gated (field absent in a record)" field)

let check ?(tolerance = 0.3) ~baseline ~fresh () =
  let failures = ref (divergence_failures fresh) in
  let summary =
    match baseline with
    | None ->
      Format.sprintf
        "fresh record %s: costs identical across job counts; no baseline \
         record, speedup not gated"
        (describe fresh)
    | Some base when not (same_workload_set base fresh) ->
      (* wall times of different workload sets (e.g. a --tiny CI record
         against a committed full-size one) are not comparable, so only
         the cost arm applies *)
      Format.sprintf
        "fresh record %s vs baseline %s: costs identical across job counts; \
         workload sets differ, speedup not gated"
        (describe fresh) (describe base)
    | Some base ->
      let floor = (1. -. tolerance) *. base.aggregate_speedup in
      if fresh.aggregate_speedup < floor then
        failures :=
          !failures
          @ [
              Format.sprintf
                "aggregate speedup regressed: %.3fx, below %.3fx (%.0f%% of \
                 the baseline's %.3fx)"
                fresh.aggregate_speedup floor
                (100. *. (1. -. tolerance))
                base.aggregate_speedup;
            ];
      Format.sprintf
        "fresh record %s vs baseline %s: costs identical across job counts; \
         aggregate speedup %.3fx against a %.3fx floor"
        (describe fresh) (describe base) fresh.aggregate_speedup floor
  in
  let sim_summary =
    field_gate ~tolerance ~field:"sim"
      ~get:(fun w -> w.sim_speedup)
      ~baseline ~fresh failures
  in
  let family_compiled_summary =
    field_gate ~tolerance ~field:"family_compiled"
      ~get:(fun w -> w.family_compiled_speedup)
      ~baseline ~fresh failures
  in
  let summary =
    Format.sprintf "%s; %s; %s" summary sim_summary family_compiled_summary
  in
  match !failures with [] -> Ok summary | failures -> Error failures

let check_file ?tolerance path =
  if not (Sys.file_exists path) then
    Error [ Format.sprintf "trajectory file %s does not exist" path ]
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match records_of_string contents with
    | Error e -> Error [ Format.sprintf "%s: %s" path e ]
    | Ok [] -> Error [ Format.sprintf "%s holds no records" path ]
    | Ok records ->
      let rec last_two = function
        | [ fresh ] -> (None, fresh)
        | [ base; fresh ] -> (Some base, fresh)
        | _ :: rest -> last_two rest
        | [] -> assert false
      in
      let baseline, fresh = last_two records in
      check ?tolerance ~baseline ~fresh ()
  end

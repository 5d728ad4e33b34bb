module J = Obs.Json

let schema = "serve/v1"

type op =
  | Ping
  | Stats
  | Metrics
  | Shutdown
  | Synthesize of { model : string; tech : string; capacity : int option }
  | Pareto of { model : string; tech : string; capacity : int option }
  | Simulate of {
      model : string;
      until : int option;
      compiled : bool;
      family : bool;
    }
  | Batch of request list

and request = {
  id : string option;
  deadline_ms : int option;
  jobs : int option;
  trace : bool;
  op : op;
}

let str_field name json = Option.bind (J.member name json) J.to_string_opt
let int_field name json = Option.bind (J.member name json) J.to_int

let bool_field name json =
  Option.value ~default:false (Option.bind (J.member name json) J.to_bool)

let require_str name json =
  match str_field name json with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let ( let* ) = Result.bind

(* the explorers raise on a negative capacity (no binding can meet
   it); the boundary refuses it before the request is queued *)
let capacity_field json =
  match int_field "capacity" json with
  | Some c when c < 0 -> Error "field \"capacity\" must be >= 0"
  | capacity -> Ok capacity

let rec op_of_json ~depth json =
  match str_field "op" json with
  | None -> Error "missing or non-string field \"op\""
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "shutdown" -> Ok Shutdown
  | Some "synthesize" ->
    let* model = require_str "model" json in
    let* tech = require_str "tech" json in
    let* capacity = capacity_field json in
    Ok (Synthesize { model; tech; capacity })
  | Some "pareto" ->
    let* model = require_str "model" json in
    let* tech = require_str "tech" json in
    let* capacity = capacity_field json in
    Ok (Pareto { model; tech; capacity })
  | Some "simulate" ->
    let* model = require_str "model" json in
    Ok
      (Simulate
         {
           model;
           until = int_field "until" json;
           compiled = bool_field "compiled" json;
           family = bool_field "family" json;
         })
  | Some "batch" ->
    if depth > 0 then Error "nested batch requests are not allowed"
    else (
      match Option.bind (J.member "requests" json) J.to_list with
      | None -> Error "batch without a \"requests\" list"
      | Some items ->
        let* reqs =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* r = request_of_json_at ~depth:(depth + 1) item in
              Ok (r :: acc))
            (Ok []) items
        in
        Ok (Batch (List.rev reqs)))
  | Some other -> Error (Printf.sprintf "unknown op %S" other)

and request_of_json_at ~depth json =
  match json with
  | J.Obj _ -> (
    match str_field "schema" json with
    | Some s when not (String.equal s schema) ->
      Error (Printf.sprintf "unknown schema %S (this daemon speaks %s)" s schema)
    | Some _ | None ->
      let* op = op_of_json ~depth json in
      Ok
        {
          id = str_field "id" json;
          deadline_ms = int_field "deadline_ms" json;
          jobs = int_field "jobs" json;
          trace = bool_field "trace" json;
          op;
        })
  | _ -> Error "request is not a JSON object"

let request_of_json json = request_of_json_at ~depth:0 json

let parse_request line =
  match J.parse line with
  | Error e -> Error (Printf.sprintf "not JSON: %s" e)
  | Ok json -> request_of_json json

let rec request_to_json r =
  let opt name f v rest =
    match v with Some v -> (name, f v) :: rest | None -> rest
  in
  let base =
    opt "id" (fun s -> J.String s) r.id
    @@ opt "deadline_ms" (fun i -> J.Int i) r.deadline_ms
    @@ opt "jobs" (fun i -> J.Int i) r.jobs
    @@ (if r.trace then [ ("trace", J.Bool true) ] else [])
  in
  let op_fields =
    match r.op with
    | Ping -> [ ("op", J.String "ping") ]
    | Stats -> [ ("op", J.String "stats") ]
    | Metrics -> [ ("op", J.String "metrics") ]
    | Shutdown -> [ ("op", J.String "shutdown") ]
    | Synthesize { model; tech; capacity } ->
      [ ("op", J.String "synthesize"); ("model", J.String model);
        ("tech", J.String tech) ]
      @ opt "capacity" (fun i -> J.Int i) capacity []
    | Pareto { model; tech; capacity } ->
      [ ("op", J.String "pareto"); ("model", J.String model);
        ("tech", J.String tech) ]
      @ opt "capacity" (fun i -> J.Int i) capacity []
    | Simulate { model; until; compiled; family } ->
      [ ("op", J.String "simulate"); ("model", J.String model) ]
      @ opt "until" (fun i -> J.Int i) until []
      @ (if compiled then [ ("compiled", J.Bool true) ] else [])
      @ (if family then [ ("family", J.Bool true) ] else [])
    | Batch reqs ->
      [ ("op", J.String "batch");
        ("requests", J.List (List.map request_to_json reqs)) ]
  in
  J.Obj ((("schema", J.String schema) :: op_fields) @ base)

let with_id ?id fields =
  match id with Some i -> ("id", J.String i) :: fields | None -> fields

let ok ?id fields =
  J.Obj
    (("schema", J.String schema)
    :: ("status", J.String "ok")
    :: with_id ?id fields)

let error ?id message =
  J.Obj
    (("schema", J.String schema)
    :: ("status", J.String "error")
    :: with_id ?id [ ("message", J.String message) ])

let overloaded ?id ~queue_depth ~queue_limit ~retry_after_ms () =
  J.Obj
    (("schema", J.String schema)
    :: ("status", J.String "overloaded")
    :: with_id ?id
         [
           ("queue_depth", J.Int queue_depth);
           ("queue_limit", J.Int queue_limit);
           ("retry_after_ms", J.Int retry_after_ms);
         ])

let status_of_response json =
  match str_field "status" json with Some s -> s | None -> "invalid"

(** The [serve/v1] wire protocol.

    Line-delimited JSON over a Unix-domain stream socket: each request
    is one minified JSON object terminated by ["\n"], each response one
    JSON object on one line.  See docs/SERVE.md for the full field
    reference; this module is the single source of truth for parsing
    and encoding, shared by the daemon and the client. *)

type op =
  | Ping
  | Stats
  | Metrics
      (** live telemetry: the [obs/v1] snapshot, the Prometheus text
          exposition and the [series/v1] rolling rates/quantiles in one
          response — see docs/OBSERVABILITY.md *)
  | Shutdown  (** graceful: drain queued work, then exit *)
  | Synthesize of { model : string; tech : string; capacity : int option }
      (** [capacity] is at least 0 when parsed from the wire *)
  | Pareto of { model : string; tech : string; capacity : int option }
      (** honours the request deadline like [Synthesize]: the response
          carries the frontier points proved in time and ["degraded"] *)
  | Simulate of {
      model : string;
      until : int option;
      compiled : bool;
      family : bool;
    }
      (** [family] (default [false]) covers the whole variant space in
          one featured pass on {!Sim.Family_compiled} plans; flat runs
          use {!Sim.Compile} plans.  Both are cached daemon-side by
          their plan keys.  [compiled] is a legacy wire field: parsed,
          re-encoded, and ignored by the handler. *)
  | Batch of request list
      (** sub-requests run on the work-stealing pool; nesting depth 1 *)

and request = {
  id : string option;
      (** idempotency key: a repeated [id] replays the cached response
          instead of recomputing *)
  deadline_ms : int option;
      (** budget from {e admission}, queue wait included *)
  jobs : int option;  (** overrides the daemon's domain count *)
  trace : bool;
      (** when true (default [false] on the wire), the response carries
          a ["trace"] field: the request's [rtrace/v1] span tree *)
  op : op;
}

val request_of_json : Obs.Json.t -> (request, string) result
(** Validates the schema tag when present and rejects unknown [op]s,
    nested batches and a negative [capacity] with a message suitable for
    an error response. *)

val request_to_json : request -> Obs.Json.t

val parse_request : string -> (request, string) result
(** One wire line (sans newline) to a request. *)

(** Response construction — every response carries ["schema"] and
    ["status"], plus ["id"] when the request had one. *)

val ok : ?id:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** [status = "ok"]; the fields are appended. *)

val error : ?id:string -> string -> Obs.Json.t
(** [status = "error"] with a ["message"]. *)

val overloaded :
  ?id:string -> queue_depth:int -> queue_limit:int -> retry_after_ms:int ->
  unit -> Obs.Json.t
(** [status = "overloaded"]: the structured load-shed rejection. *)

val status_of_response : Obs.Json.t -> string
(** ["ok"], ["error"], ["overloaded"] — or ["invalid"] when the line is
    not a [serve/v1] response. *)

(** Deterministic fault injection for the discrete-event engine.

    A {!plan} scripts the faults of one simulation run: per-channel
    token loss/corruption/duplication on environment injections,
    per-process transient firing failures with a bounded retry budget
    and backoff latency, permanent crashes, latency overruns, and
    reconfiguration steps that abort after paying [t_conf].

    Every random decision is drawn from a splitmix64 generator seeded by
    {!plan.seed}: the engine's event loop is deterministic, so the same
    plan over the same model and stimuli reproduces the same trace
    byte-for-byte — a fault campaign is a set of seeds, and any
    interesting seed can be replayed exactly.

    The optional {!degradation} policy is the watchdog: processes that
    accumulate failures past the threshold are forcibly reconfigured to
    a fallback configuration (Def. 4) — the interface's other cluster,
    as designated by the selection function's
    {!Variants.Selection.fallback_cluster} or, at the abstracted level,
    {!Variants.Configuration.fallback}.  The switch pays the fallback's
    [t_conf], restricts the process to the fallback's modes, and is
    recorded as a {!Degraded} event. *)

(** {1 Deterministic randomness} *)

type rng
(** Mutable splitmix64 state. *)

val rng : int -> rng
val rng_float : rng -> float
(** Uniform draw in [\[0, 1)]. *)

val rng_int : rng -> bound:int -> int
(** Uniform draw in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

(** {1 Fault triggers} *)

(** When a scripted fault actually fires. *)
type trigger =
  | Never
  | Probability of float  (** independent draw per opportunity *)
  | Windows of (int * int) list
      (** fires deterministically inside any [\[start, stop)] window *)

val fires : rng -> time:int -> trigger -> bool
(** Evaluates a trigger.  [Probability] consumes one draw from the
    generator; the other triggers consume none. *)

(** {1 Plans} *)

type token_fault =
  | Drop  (** the token is lost before it reaches the channel *)
  | Corrupt
      (** the token arrives with its tags replaced by {!corrupt_tag}
          (content information destroyed) *)
  | Duplicate  (** the token arrives twice *)

type channel_plan = {
  channel : Spi.Ids.Channel_id.t;
  token_fault : token_fault;
  trigger : trigger;
}

type process_plan = {
  process : Spi.Ids.Process_id.t;
  transient : trigger;  (** a firing attempt fails before consuming *)
  max_retries : int;
      (** total transient failures tolerated over the run; the next one
          is a permanent failure *)
  backoff : int;  (** latency charged per failed attempt *)
  crash_at : int option;  (** permanent crash at this instant *)
  overrun : (trigger * int) option;
      (** latency-overrun fault: extra latency added to a firing *)
  reconf_failure : trigger;
      (** a configuration switch aborts after paying [t_conf] *)
}

val on_channel :
  Spi.Ids.Channel_id.t -> token_fault -> trigger -> channel_plan

val on_process :
  ?transient:trigger ->
  ?max_retries:int ->
  ?backoff:int ->
  ?crash_at:int ->
  ?overrun:trigger * int ->
  ?reconf_failure:trigger ->
  Spi.Ids.Process_id.t ->
  process_plan
(** Defaults: no transient faults, [max_retries = 3], [backoff = 1], no
    crash, no overrun, no reconfiguration failures.
    @raise Invalid_argument on negative retries, backoff or crash
    time. *)

type degradation = {
  failure_threshold : int;
      (** failures (transient, exhausted retries, crashes, aborted
          reconfigurations) a process may accumulate before the
          watchdog degrades it *)
  fallback :
    Spi.Ids.Process_id.t ->
    Spi.Ids.Config_id.t option ->
    Spi.Ids.Config_id.t option;
      (** fallback configuration given the current [confcur]; [None]
          leaves the process failed in place *)
  recovery_stimuli :
    Spi.Ids.Process_id.t ->
    Spi.Ids.Config_id.t ->
    (Spi.Ids.Channel_id.t * Spi.Token.t) list;
      (** tokens injected when degradation to the given configuration is
          forced — lets a model's own switching protocol (e.g. the video
          controller) carry out the switch *)
}

val degradation :
  ?failure_threshold:int ->
  ?recovery_stimuli:
    (Spi.Ids.Process_id.t ->
    Spi.Ids.Config_id.t ->
    (Spi.Ids.Channel_id.t * Spi.Token.t) list) ->
  fallback:
    (Spi.Ids.Process_id.t ->
    Spi.Ids.Config_id.t option ->
    Spi.Ids.Config_id.t option) ->
  unit ->
  degradation
(** Defaults: [failure_threshold = 1], no recovery stimuli.
    @raise Invalid_argument if the threshold is not positive. *)

val fallback_of_configurations :
  Variants.Configuration.t list ->
  Spi.Ids.Process_id.t ->
  Spi.Ids.Config_id.t option ->
  Spi.Ids.Config_id.t option
(** The standard fallback policy over abstracted interfaces: the first
    configuration of the process's set that differs from the current
    one (see {!Variants.Configuration.fallback}). *)

type plan = {
  seed : int;
  channels : channel_plan list;
  processes : process_plan list;
  degrade : degradation option;
}

val plan :
  ?channels:channel_plan list ->
  ?processes:process_plan list ->
  ?degrade:degradation ->
  seed:int ->
  unit ->
  plan

(** {1 Events recorded in the trace} *)

type event =
  | Token_dropped of { channel : Spi.Ids.Channel_id.t; token : Spi.Token.t }
  | Token_corrupted of {
      channel : Spi.Ids.Channel_id.t;
      token : Spi.Token.t;  (** the corrupted replacement *)
    }
  | Token_duplicated of {
      channel : Spi.Ids.Channel_id.t;
      token : Spi.Token.t;
    }
  | Transient_failure of {
      process : Spi.Ids.Process_id.t;
      mode : Spi.Ids.Mode_id.t;
      retry : int;  (** ordinal of this failure, 1-based *)
      backoff : int;
    }
  | Retries_exhausted of {
      process : Spi.Ids.Process_id.t;
      mode : Spi.Ids.Mode_id.t;
    }
  | Crashed of { process : Spi.Ids.Process_id.t }
  | Latency_overrun of {
      process : Spi.Ids.Process_id.t;
      mode : Spi.Ids.Mode_id.t;
      extra : int;
    }
  | Reconfiguration_failed of {
      process : Spi.Ids.Process_id.t;
      target : Spi.Ids.Config_id.t;
      latency : int;  (** the [t_conf] paid by the aborted switch *)
    }
  | Degraded of {
      process : Spi.Ids.Process_id.t;
      from_ : Spi.Ids.Config_id.t option;
      to_ : Spi.Ids.Config_id.t;
      latency : int;  (** the fallback's [t_conf] *)
    }

val event_kind : event -> string
(** Short stable label ("token_dropped", "degraded", …) used by the CSV
    and JSON exporters. *)

val pp_event : Format.formatter -> event -> unit

val corrupt_tag : Spi.Tag.t
(** The tag carried by corrupted tokens (their original tags are
    destroyed). *)

(** {1 Runtime state driven by the engine} *)

type state

val start : plan -> state
val plan_of : state -> plan

val copy : state -> state
(** Independent clone of the runtime state: the splitmix64 stream
    position and every per-process counter (retries, failures, crash and
    degradation flags) are duplicated, so the clone and the original
    draw and count independently from the fork point on.
    {!Family_compiled} forks the fault state when a run splits into sub-families — each
    branch then consumes the stream exactly as a per-configuration
    {!Engine.run} would from that point. *)

(** Outcome of passing one injected token through the channel plans. *)
type token_outcome =
  | Deliver
  | Dropped
  | Corrupted of Spi.Token.t
  | Duplicated

val on_token :
  state -> time:int -> Spi.Ids.Channel_id.t -> Spi.Token.t -> token_outcome

(** Outcome of a firing attempt. *)
type attempt =
  | Proceed of { overrun : int option }
      (** fire normally, stretched by [overrun] when the latency fault
          triggered *)
  | Retry of { retry : int; backoff : int }
      (** transient failure: back off, tokens stay untouched *)
  | Exhausted
      (** the retry budget is spent: the process fails permanently *)

val on_attempt :
  state -> time:int -> Spi.Ids.Process_id.t -> Spi.Ids.Mode_id.t -> attempt

val reconf_fails : state -> time:int -> Spi.Ids.Process_id.t -> bool

val crashed : state -> Spi.Ids.Process_id.t -> bool
val mark_crashed : state -> Spi.Ids.Process_id.t -> unit

val crash_schedule : state -> (Spi.Ids.Process_id.t * int) list
(** Scheduled permanent crashes, for the engine to turn into events. *)

val note_failure : state -> Spi.Ids.Process_id.t -> unit
val failures : state -> Spi.Ids.Process_id.t -> int
val retries_used : state -> Spi.Ids.Process_id.t -> int

val should_degrade : state -> Spi.Ids.Process_id.t -> bool
(** The plan has a degradation policy, the process reached the failure
    threshold, and it has not been degraded yet. *)

val mark_degraded : state -> Spi.Ids.Process_id.t -> unit
(** Records the degradation and revives the process (crash flag and
    failure counter reset) so the fallback configuration can run. *)

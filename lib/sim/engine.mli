(** Discrete-event simulation of SPI models with dynamic variants.

    Processes start when their activation function enables a rule:
    consumption happens at start, production at completion after the
    mode's latency (picked inside its interval by the {!policy}).  When
    a {!Variants.Configuration.t} is attached to a process and an
    activated mode lies outside the current configuration, the
    reconfiguration latency is added to that execution and the switch is
    recorded in the trace — the higher-level view of Section 4 ("the
    reconfiguration latency is simply added to the process execution
    latency").

    This interpreter is the readable reference semantics.  The CLI and
    the serve daemon run the compiled engines instead ({!Compile} for
    one configuration, {!Family_compiled} for a whole variant space);
    the differential test harnesses hold both to [run]'s results. *)

(** How interval parameters are resolved to concrete values. *)
type policy =
  | Best_case  (** lower bounds everywhere *)
  | Worst_case  (** upper bounds everywhere *)
  | Typical  (** interval midpoints *)

type stimulus = {
  at : int;
  channel : Spi.Ids.Channel_id.t;
  token : Spi.Token.t;
}
(** Environment injection: the simulator writes [token] on [channel] at
    time [at] (modeling input streams, user requests, …). *)

type limits = { max_time : int; max_firings : int }

val default_limits : limits
(** [max_time = 100_000], [max_firings = 100_000]. *)

type outcome =
  | Quiescent  (** no activable process and no pending event *)
  | Time_limit_reached
  | Firing_limit_reached

type result = {
  trace : Trace.t;
  final_state : Spi.Semantics.state;
  end_time : int;
  outcome : outcome;
  firings : int;
  reconfiguration_time : int;
      (** total time spent in (re)configuration steps *)
}

val run :
  ?policy:policy ->
  ?limits:limits ->
  ?overflow:Spi.Semantics.overflow ->
  ?configurations:Variants.Configuration.t list ->
  ?stimuli:stimulus list ->
  ?firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  Spi.Model.t ->
  result
(** Runs the model to quiescence or a limit.

    [faults] attaches a deterministic fault-injection plan
    (see {!Fault}): channel faults filter environment injections, process
    faults fail firing attempts before consumption (retry with backoff
    until the budget runs out), scripted crashes silence a process
    permanently, and reconfiguration failures pay [t_conf] without
    switching.  When the plan carries a degradation policy, a watchdog
    counts failures per process and — at the threshold — forces a
    reconfiguration to the fallback configuration: its [t_conf] is added
    to [reconfiguration_time], the process is thereafter restricted to
    the fallback configuration's modes (plus modes outside every
    configuration), and a {!Fault.Degraded} event is recorded.  The same
    plan always yields the same trace.

    [overflow] (default {!Spi.Semantics.Reject}) decides what happens
    when a bounded queue is written while full: [Reject] propagates
    {!Spi.Semantics.Channel_overflow} (models must size their buffers),
    [Drop_newest] silently loses the token (lossy environments such as
    the video input).

    [firing_budget] caps how many times a process may start; processes
    with no input channels default to budget 0 (they only run if given
    a budget), every other process is unbounded by default.  Budgets
    express one-shot environment processes such as the paper's [PUser]
    ("to execute only once in the beginning").

    @raise Invalid_argument if a configuration names a process absent
    from the model or fails {!Variants.Configuration.validate_against}. *)

val pick : policy -> Interval.t -> int
(** The value a policy realizes inside an interval: lower bound, upper
    bound, or midpoint.  {!Compile.run} resolves its per-run dispatch
    tables with this, so both engines draw latencies and rates
    identically. *)

val record_metrics : start_ns:int -> Trace.t -> unit
(** Feeds the registry's simulation counters and per-process latency
    histograms from a finished trace (one pass, after the event loop).
    Exposed so {!Compile.run} records exactly the metrics the
    interpreter would. *)

val pp_policy : Format.formatter -> policy -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val pp_summary : Format.formatter -> result -> unit

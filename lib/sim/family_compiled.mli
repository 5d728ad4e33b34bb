(** Family-based ("featured") simulation of a variant space.

    {!Engine.run} evaluates one flattened configuration at a time, so
    covering a system's whole variant space costs
    O(configurations x scenario).  This module lifts the simulation over
    the space: one run starts from a single {e sub-family} covering
    every configuration (a presence condition over
    {!Variants.Presence}), executes work shared by all members once, and
    splits into smaller sub-families only at the first event where the
    members' behaviors can diverge — when a variant of a still-inactive
    site could activate, or when the environment injects into a site's
    internals.  Configurations whose distinguishing clusters never
    activate under the scenario are never split apart: the run covers
    them all with one execution.

    Each sub-family executes on its representative configuration's
    flattened model lowered to {!Compile}-style flat tables (shared with
    that engine through {!Crt}): dense channel indexes into ring
    buffers, compiled guards, an int-coded {!Heap.Int_heap} event loop,
    and the presence-condition bookkeeping (split detection, fork
    transplants, narrowing) hoisted out of the hot path.

    The per-configuration results are {e exactly} the results
    per-configuration {!Engine.run}s (and {!Compile.run}s) would produce
    on the flattened models — trace entry for entry, final channel
    contents, outcome, firing counts and the fault-plan RNG stream
    included.  The differential harness in [test/test_family_compiled.ml]
    enforces this structurally and at rendered-byte level across
    generated systems, fault plans, seeds, job counts and split
    policies; docs/FAMILY.md states the proof obligation.

    Restrictions (checked, [Invalid_argument]):
    - shared element ids must not collide with any site's ["<site>."]
      prefix, and no site prefix may extend another's — the prefixes are
      how the engine attributes state to sites;
    - fault plans must not carry a degradation policy: flattened
      per-configuration models have no {!Variants.Configuration.t}s to
      fall back to, so a degrading family run would have no
      per-configuration reference. *)

type config_run = {
  index : int;  (** position in {!Variants.Variant_space.enumerate} order *)
  assignment : Variants.Variant_space.assignment;
  result : Engine.result;
      (** identical to [Engine.run] on this configuration's flattened
          model under the same scenario *)
}

type leaf = {
  leaf_members : int list;
      (** configuration indices the leaf covers, ascending *)
  leaf_makespan : int;
      (** end time of the leaf's last completion (0 when nothing
          completed) — the same number for every member, computed once
          from the shared trace *)
}
(** A sub-family that ran to its outcome. *)

type report = {
  runs : config_run array;  (** one per configuration, in index order *)
  splits : int;  (** sub-family forks taken *)
  subfamilies : int;  (** leaves: distinct executions that finished *)
  executed_firings : int;
      (** firings the family engine actually performed, summed over all
          sub-families *)
  shared_firings : int;
      (** of those, firings performed while covering two or more
          configurations — the work a per-configuration sweep would have
          repeated *)
  leaves : leaf array;
      (** the finished sub-families, ordered by smallest member index
          (independent of [jobs]); their member lists partition the
          configuration indices *)
}

type plan
(** Compiled variant space: presence space, site list, and
    demand-compiled per-representative tables (flattened model, initial
    state, flat channel/process tables).  Thread-safe: worker domains
    and concurrent runs may share one plan. *)

val plan : ?linkage:Variants.Variant_space.linkage -> Variants.System.t -> plan
(** Lowers the system's variant space for family execution.  Site
    prefixes are validated here, once, rather than per run.

    @raise Invalid_argument on prefix collisions (see above). *)

val plan_key : ?linkage:Variants.Variant_space.linkage -> Variants.System.t -> string
(** The key {!plan} would assign, without compiling — hex digest over
    {!Variants.Canonical.of_system} and the linkage.  Equal keys mean
    the compiled plans are interchangeable. *)

val key : plan -> string
(** Cache key of this plan (see {!plan_key}). *)

val system : plan -> Variants.System.t
val configurations : plan -> int

val run :
  ?policy:Engine.policy ->
  ?limits:Engine.limits ->
  ?overflow:Spi.Semantics.overflow ->
  ?stimuli:Engine.stimulus list ->
  ?firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  ?jobs:int ->
  ?split:[ `Narrow | `Full ] ->
  plan ->
  report
(** Simulates every configuration of the plan's variant space in one
    featured pass.  The scenario parameters have {!Engine.run}'s
    semantics and apply uniformly to every configuration; stimuli may
    target shared (unprefixed) channels or a site's internals.

    [split] picks the policy for a stimulus aimed inside a still-cold
    site.  [`Full] forces the site's sub-families apart at injection
    time.  [`Narrow] (the default) first checks whether every member
    declares the target channel identically (kind, capacity, initial
    tokens): if so the channel is marked {e warm} and the write is
    carried live by the whole sub-family — the split happens later, and
    only if one of the site's variants actually activates.  Narrow
    splitting never forks more sub-families than full splitting, and the
    per-configuration results are identical under both policies.

    [jobs] (default 1) runs sub-families as steal-able tasks on the
    {!Synth.Par} work-stealing domain pool: each split offers the new
    sub-families to idle domains, so a heavily-splitting space fans out.
    Results are identical for every job count.

    Registers [sim.family.*] metrics: [runs], [configs], [splits],
    [subfamilies], [shared_firings], [compiles] (plans built), the
    [configs_per_firing] histogram and the [sim.family.run_ns] span.

    @raise Invalid_argument on degradation plans; exceptions a
    per-configuration run would raise ({!Spi.Semantics.Channel_overflow},
    [Not_found] on stimuli naming channels absent from a member's model)
    propagate unchanged. *)

val makespans : report -> (int * int) array
(** [(index, makespan)] per configuration — the end time of the last
    completion in its trace (0 when nothing completed).  The basis of
    per-configuration deadline headroom: [deadline - makespan]. *)

val headroom : deadline:int -> report -> (int * int) array
(** [(index, deadline - makespan)] per configuration, computed once per
    leaf sub-family from {!leaf.leaf_makespan} and fanned out to the
    leaf's members — agreeing with [deadline - snd] over {!makespans}
    entry for entry, at the cost of one trace scan per leaf instead of
    one per configuration.  Negative headroom means the configuration
    misses the deadline. *)

val emit_timeline :
  Obs.Trace_event.sink -> Variants.System.t -> report -> unit
(** Exports every configuration's schedule into one trace file using
    the family lane convention: configuration [index] becomes process
    group [pid = index + 1], named after its assignment, with
    {!Timeline.emit}'s usual per-process lanes inside.  Shared prefixes
    therefore appear as identical lanes across the groups; the groups
    diverge where the run split. *)

val pp_summary : Format.formatter -> report -> unit

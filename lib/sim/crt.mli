(** Shared runtime of the compiled engines.

    {!Compile} (per-configuration AOT simulation) and {!Family_compiled}
    (compiled family-based simulation) lower models onto the same
    closure-free primitives: ring-buffered channel state, activation
    guards compiled over dense channel indexes, and an int-coded event
    scheme for the flat {!Heap.Int_heap}.  Keeping them here guarantees
    the two engines agree byte-for-byte on channel and event semantics —
    the three-way differential harness in [test/test_family_compiled.ml]
    leans on that. *)

(** {1 Channel state} *)

type cstate = {
  mutable buf : Spi.Token.t array;
  mutable head : int;
  mutable count : int;
}
(** Ring-buffered channel contents.  Registers keep at most one token
    (destructive write); queues are FIFO with amortized O(1)
    push/pop. *)

val dummy_token : Spi.Token.t
(** Fills unused ring slots so popped tokens are not retained. *)

val make_chan : Spi.Token.t list -> cstate
(** A fresh ring holding the given initial tokens, in order. *)

val copy_chan : cstate -> cstate
(** Independent clone with identical contents and layout —
    {!Family_compiled} transplants live channels across sub-family
    forks with this. *)

val ring_push : cstate -> Spi.Token.t -> unit
val ring_pop : cstate -> Spi.Token.t

val contents : cstate -> Spi.Token.t list
(** FIFO-order contents, head first. *)

val write :
  register:bool array ->
  cap:int array ->
  ids:Spi.Ids.Channel_id.t array ->
  overflow:Spi.Semantics.overflow ->
  cstate array ->
  int ->
  Spi.Token.t ->
  unit
(** [write ~register ~cap ~ids ~overflow chans ix tok] performs one
    channel write with the reference semantics: destructive on
    registers; on a full bounded queue ([cap.(ix) >= 0]) it raises
    {!Spi.Semantics.Channel_overflow} under [Reject] and discards the
    token under [Drop_newest]. *)

(** {1 Compiled guards} *)

type gpred =
  | G_true
  | G_false
  | G_num_at_least of int * int  (** channel index, threshold *)
  | G_first_has_tag of int * Spi.Tag.t
  | G_and of gpred * gpred
  | G_or of gpred * gpred
  | G_not of gpred
      (** Activation guards over channel indexes.  A channel the model
          does not declare compiles to index -1: it holds no tokens and
          no tags, exactly like the interpreter's view of an absent
          channel. *)

type crule = { guard : gpred; target : int  (** mode index; -1 unknown *) }

type ccons = {
  c_ix : int;  (** channel index; -1 when the model lacks the channel *)
  c_cid : Spi.Ids.Channel_id.t;
  c_rate : Interval.t;
}

type cprod = {
  p_ix : int;
  p_cid : Spi.Ids.Channel_id.t;
  p_rate : Interval.t;
  p_tags : Spi.Tag.Set.t;
}

val compile_pred :
  ix_of:(Spi.Ids.Channel_id.t -> int) -> Spi.Predicate.t -> gpred

val eval : cstate array -> gpred -> bool
(** Evaluates a compiled guard against the live channel rings. *)

(** {1 Event coding}

    [4*k] injection #k, [4*p+1] completion of process [p], [4*p+2]
    recovery of process [p], [4*k+3] scripted crash #k — dispatch on
    [v land 3], operand is [v lsr 2]. *)

val ev_inject : int -> int
val ev_complete : int -> int
val ev_recover : int -> int
val ev_crash : int -> int

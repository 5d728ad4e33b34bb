(** Process-to-implementation bindings. *)

type impl = Sw | Hw

type t
(** A total mapping from a set of processes to implementations. *)

val empty : t
val bind : Spi.Ids.Process_id.t -> impl -> t -> t
val of_list : (Spi.Ids.Process_id.t * impl) list -> t
val impl_of : Spi.Ids.Process_id.t -> t -> impl option
val mem : Spi.Ids.Process_id.t -> t -> bool
val processes : t -> Spi.Ids.Process_id.t list
val sw_processes : t -> Spi.Ids.Process_id.Set.t
val hw_processes : t -> Spi.Ids.Process_id.Set.t
val merge : t -> t -> (t, Spi.Ids.Process_id.t list) result
(** Union of two bindings; [Error ps] lists every process bound
    differently on the two sides (the left implementation is kept in
    neither case — merging fails). *)

val compare : t -> t -> int
(** The canonical order of the explorers' tie-break (see {!Search}):
    lexicographic over processes in pid order, [Sw] before [Hw]. *)

val union_prefer_left : t -> t -> t
val cardinal : t -> int
val pp_impl : Format.formatter -> impl -> unit
val pp : Format.formatter -> t -> unit

(** The warehouse schema: base relations replicated from the sources, the
    select-join primary view defined over them, per-relation delta statistics
    for one refresh batch, and the physical parameters of the warehouse.

    Relations are referred to by their index in [relations]; sets of
    relations are {!Vis_util.Bitset.t} values.  The primary view is always
    the join of {e all} base relations with every selection pushed down, per
    Section 3.1 of the paper. *)

type relation = {
  rel_name : string;
  card : float;  (** [T(R)]: number of tuples *)
  tuple_bytes : int;  (** width of one tuple in bytes *)
  key_attr : string;  (** every base relation has a key (Section 3.1) *)
  attrs : string list;  (** all attribute names, including [key_attr] *)
}

type selection = {
  sel_rel : int;  (** relation the local condition applies to *)
  sel_attr : string;
  selectivity : float;  (** fraction of tuples passing, in (0, 1] *)
}

type join = {
  left_rel : int;
  left_attr : string;
  right_rel : int;
  right_attr : string;
  join_sel : float;  (** [f] such that [|Ri ⋈ Rj| = f·T(Ri)·T(Rj)] *)
}

type delta = {
  n_ins : float;  (** [I(R)]: insertions in the batch *)
  n_del : float;  (** [D(R)]: deletions in the batch *)
  n_upd : float;  (** [U(R)]: protected updates in the batch *)
}

type t = {
  relations : relation array;
  selections : selection list;
  joins : join list;
  deltas : delta array;
  page_bytes : int;  (** size of a disk page *)
  mem_pages : int;  (** [P_m]: buffer pages available for maintenance *)
  index_entry_bytes : int;  (** width of a (key, rid) B+-tree entry *)
}

exception Invalid of string

(** [make ~relations ~selections ~joins ~deltas ()] builds and validates a
    schema.  Optional physical parameters default to 4096-byte pages, 1000
    memory pages, and 16-byte index entries.  Raises {!Invalid} when indices
    are out of range, attribute names unknown, selectivities outside (0, 1],
    cardinalities non-positive, delta counts negative, or two relations share
    a name. *)
val make :
  ?page_bytes:int ->
  ?mem_pages:int ->
  ?index_entry_bytes:int ->
  relations:relation list ->
  selections:selection list ->
  joins:join list ->
  deltas:delta list ->
  unit ->
  t

val n_relations : t -> int

(** [all_relations s] is the set [{0 .. n-1}] — the relation set of the
    primary view. *)
val all_relations : t -> Vis_util.Bitset.t

val relation : t -> int -> relation

val delta : t -> int -> delta

(** [rel_index s name] finds a relation by name.  Raises [Not_found]. *)
val rel_index : t -> string -> int

(** [attr_pos s rel name] is the position of attribute [name] within
    relation [rel]'s attribute list — a compact attribute identifier used
    for hashing.  Raises [Not_found] for unknown attributes. *)
val attr_pos : t -> int -> string -> int

(** [combined_selectivity s i] is the product of the selectivities of all
    local conditions on relation [i] (1.0 when there are none). *)
val combined_selectivity : t -> int -> float

(** [has_selection s i] tells whether relation [i] carries at least one local
    selection condition — such relations give rise to σR candidate views. *)
val has_selection : t -> int -> bool

(** [selection_attrs s i] is the attribute names of relation [i] with local
    conditions, without duplicates. *)
val selection_attrs : t -> int -> string list

(** [joins_within s set] is the joins with both ends in [set]. *)
val joins_within : t -> Vis_util.Bitset.t -> join list

(** [connected s set] tells whether [set] induces a connected subgraph of the
    join graph (singletons are connected). *)
val connected : t -> Vis_util.Bitset.t -> bool

(** [join_attrs s i] is the attributes of relation [i] used by some join
    condition of the primary view, without duplicates. *)
val join_attrs : t -> int -> string list

(** [with_deltas s deltas] replaces the delta statistics. *)
val with_deltas : t -> delta list -> t

(** [with_mem_pages s m] replaces [P_m]. *)
val with_mem_pages : t -> int -> t

(** [scale_deltas s factor] multiplies every delta count by [factor]. *)
val scale_deltas : t -> float -> t

val pp : Format.formatter -> t -> unit

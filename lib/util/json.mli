(** A minimal JSON tree, printer and parser — just enough for the
    optimizer's machine-readable observability output ([visadvisor --json],
    [BENCH_vis.json]) and for the test suite to check that output is valid
    JSON, without pulling an external dependency into the core libraries.

    The printer escapes control characters and quotes (non-ASCII bytes pass
    through untouched, so UTF-8 strings survive printing verbatim);
    non-finite floats (which JSON cannot represent) are emitted as [null].
    The parser accepts the standard grammar (RFC 8259): ["\uXXXX"] escapes
    decode to UTF-8, including surrogate pairs for supplementary-plane
    characters; unpaired surrogates are a {!Parse_error}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?indent v] renders [v]; with [indent] (spaces per level,
    default compact) the output is pretty-printed. *)
val to_string : ?indent:int -> t -> string

exception Parse_error of string

(** Containers may nest at most this deep ([512]); deeper input is a
    {!Parse_error}, not a stack overflow. *)
val max_depth : int

(** [of_string s] parses one JSON value, requiring that only whitespace
    follows it.  Raises {!Parse_error} — also on containers nested deeper
    than {!max_depth} and on numeric literals that would produce a
    non-finite float (e.g. ["1e999"]), both of which the grammar-level
    checks turn into typed errors instead of undefined downstream
    behavior. *)
val of_string : string -> t

(** [member name v] is the field [name] of object [v], or [Null] when
    absent or when [v] is not an object. *)
val member : string -> t -> t

(** [fields v] is the members of object [v] in order; [[]] when [v] is
    not an object.  Lets a report splice a shared serializer's members into
    a larger object. *)
val fields : t -> (string * t) list

(** [to_float v] widens [Int] and [Float] to float.  Raises
    {!Parse_error} on other constructors. *)
val to_float : t -> float

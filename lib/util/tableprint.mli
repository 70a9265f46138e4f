(** Fixed-width ASCII tables for the benchmark/experiment output.  Columns
    are sized to their widest cell; headers are separated by a rule. *)

type t

(** [create headers] starts a table with the given column headers. *)
val create : string list -> t

(** [add_row t cells] appends a row.  Rows shorter than the header are padded
    with empty cells; longer rows raise [Invalid_argument]. *)
val add_row : t -> string list -> unit

(** [render t] produces the formatted table, newline-terminated. *)
val render : t -> string

(** [print t] writes [render t] to [stdout]. *)
val print : t -> unit

(** Format a float with [digits] decimal places. *)
val fmt_float : ?digits:int -> float -> string

(** Format a float in a compact style: integers without a fraction, large
    values with thousands grouping. *)
val fmt_compact : float -> string

(** [of_json ?title v] renders a report as tables, the human twin of the
    JSON document it came from.  An object's scalar members form one
    [name]/[value] table; a list of objects forms one table with a row per
    object and the union of its scalar keys as headers.  Every object or
    list member then renders as its own table, titled with its path
    ([title.key], [title[i].key]).  Empty objects render nothing, [null]
    and empty lists render as ["-"], and a list of scalars as one
    comma-separated cell.  Floats have one format: integral values without
    a fraction, magnitudes of at least 1 with two decimals, smaller ones
    with four significant digits.  Each table is preceded by its title
    line when it has one; tables are separated by a blank line. *)
val of_json : ?title:string -> Json.t -> string

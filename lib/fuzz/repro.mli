(** Replayable failure reproductions.

    A repro is one JSON document carrying the (shrunk) schema that makes an
    oracle fail, the oracle's name and failure message, the seed/trial
    coordinates of the run that found it and the fault knobs it ran with —
    enough for [visfuzz --replay repro.json] to re-execute the check
    deterministically, and for a human to read the instance at a glance.

    Schemas round-trip exactly: floats are printed by {!Vis_util.Json} with
    17 significant digits, and {!schema_of_json} rebuilds the schema through
    {!Vis_catalog.Schema.make}, so a loaded repro revalidates. *)

exception Malformed of string

(** Structural schema serialization (all fields, including the physical
    parameters). *)
val schema_to_json : Vis_catalog.Schema.t -> Vis_util.Json.t

(** Raises {!Malformed} (or {!Vis_catalog.Schema.Invalid}) on documents that
    do not describe a valid schema. *)
val schema_of_json : Vis_util.Json.t -> Vis_catalog.Schema.t

type t = {
  r_seed : int;  (** base seed of the fuzz run *)
  r_trial : int;  (** trial index within the run *)
  r_oracle : string;
  r_failure : string;  (** the oracle's failure message *)
  r_schema : Vis_catalog.Schema.t;  (** the shrunk failing instance *)
  r_original : Vis_catalog.Schema.t option;  (** pre-shrink instance *)
  r_fault_rounds : int;  (** [visfuzz --faults] of the run *)
  r_fault_seed : int;  (** [visfuzz --fault-seed] of the run *)
}

(** The [visfuzz] defaults of [--faults] (1) and [--fault-seed] (0), which
    {!of_json} assumes for a document written before repros recorded
    them. *)
val default_fault_rounds : int

val default_fault_seed : int

val to_json : t -> Vis_util.Json.t

val of_json : Vis_util.Json.t -> t

val save : string -> t -> unit

(** Raises {!Malformed} / {!Vis_util.Json.Parse_error} / [Sys_error]. *)
val load : string -> t

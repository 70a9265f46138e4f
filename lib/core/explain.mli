(** Human-readable explanation of a physical design: for every maintained
    element and every delta type, the update path the optimizer would
    execute and its cost breakdown — the report a warehouse administrator
    reads to understand {e why} a configuration wins.  Used by the CLI's
    [explain] subcommand and the examples. *)

type line = {
  l_element : string;  (** the maintained element, e.g. "V" or "SσT" *)
  l_delta : string;  (** e.g. "ΔR", "∇S", "μT" *)
  l_plan : string;  (** rendered update path or locate method *)
  l_eval : float;
  l_apply : float;
  l_save : float;
  l_index : float;
  l_total : float;
}

type report = {
  r_config : string;
  r_total : float;
  r_space : float;  (** additional pages the design occupies *)
  r_lines : line list;  (** nonzero-cost propagations, by element *)
}

(** [explain p config] evaluates every propagation under [config]. *)
val explain : Problem.t -> Vis_costmodel.Config.t -> report

(** [report_json report] is the report: the configuration, its total cost
    and space, and every propagation line with its plan and cost components
    — printed by [visadvisor --json], and as tables
    ({!Vis_util.Tableprint.of_json}) by [--trace] and [explain]. *)
val report_json : report -> Vis_util.Json.t

(** [compare_designs p configs] renders a side-by-side cost summary of
    several named designs (total, space, and the per-element subtotals). *)
val compare_designs : Problem.t -> (string * Vis_costmodel.Config.t) list -> string

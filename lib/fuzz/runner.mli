(** The fuzzing loop: generate, check, shrink, report.

    Every trial draws one schema from {!Gen.schema} with an RNG seeded from
    [(seed, trial)], then runs each selected oracle with a context whose RNG
    is seeded from [(seed, trial, oracle index in the registry)].  The same
    [(seed, trial)] therefore always replays to the same outcome, and the
    outcome of one oracle never depends on which other oracles were
    selected.  An exception escaping an oracle is recorded as a failure
    (message ["exception: ..."]), not a crash of the fuzzer. *)

type config = {
  cf_seed : int;
  cf_trials : int;  (** maximum number of trials *)
  cf_time_budget : float option;
      (** wall-clock budget in seconds; the loop stops before starting a
          trial once the budget is exhausted *)
  cf_oracles : Oracles.t list;  (** in registry order *)
  cf_max_states : float;
  cf_io_band : float;
  cf_exec_tuples : float;
  cf_jobs : int;
  cf_fault_seed : int;
      (** folded into the crash-recovery oracle's fault plans *)
  cf_fault_rounds : int;
      (** fault plans the crash-recovery oracle tries per schema *)
  cf_shrink : bool;  (** minimize failing schemas before reporting *)
  cf_max_failures : int;  (** stop the loop after this many failures *)
}

(** [default_config ()] fuzzes all oracles: seed 0, 100 trials, no time
    budget, shrinking on, stop after 20 failures, and the {!Oracles.make_ctx}
    defaults for the context knobs. *)
val default_config : unit -> config

type oracle_stats = {
  os_name : string;
  os_pass : int;
  os_skip : int;
  os_fail : int;
  os_seconds : float;  (** total wall-clock spent in this oracle *)
}

type failure = {
  f_trial : int;
  f_oracle : string;
  f_message : string;
  f_schema : Vis_catalog.Schema.t;  (** shrunk when [cf_shrink] *)
  f_original : Vis_catalog.Schema.t option;
      (** the pre-shrink schema, when shrinking changed it *)
}

type report = {
  rp_config : config;
  rp_trials_run : int;
  rp_elapsed : float;
  rp_oracles : oracle_stats list;
  rp_failures : failure list;
}

val run : config -> report

(** [check_schema config ~trial schema] runs the configured oracles on one
    schema with the deterministic per-oracle contexts of [trial] — the
    replay path for a saved repro.  No shrinking. *)
val check_schema :
  config -> trial:int -> Vis_catalog.Schema.t -> (string * Oracles.outcome) list

(** [failure_to_repro config f] — the repro of [f], with the seed and
    fault knobs of the run [config] describes. *)
val failure_to_repro : config -> failure -> Repro.t

(** The run as one JSON document: seed, trials, per-oracle pass/skip/fail
    counts and every failure as a repro. *)
val report_json : report -> Vis_util.Json.t

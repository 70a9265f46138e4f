(** A scrub pass over a buffer pool's checksum-protected pages.

    {!sweep} probes every protected page in ascending gid order via
    {!Buffer_pool.verify} — each probe counts a checksum verification (and
    the checksum-page touch) in {!Iostats}, so scrubbing has a measurable
    I/O cost — and quarantines every page whose payload no longer hashes
    to its stored seal.  Detection only: repair (rebuilding views and
    indexes from base relations, refusing on base-relation damage) lives
    in the maintenance layer, which owns the page-to-structure mapping. *)

type report = {
  sr_scanned : int;  (** protected pages probed *)
  sr_clean : int;  (** pages that verified *)
  sr_corrupt : int list;
      (** gids convicted this sweep (or found already quarantined),
          ascending *)
}

val sweep : Buffer_pool.t -> report

(* A scrub pass: probe every checksum-protected page and quarantine the
   ones whose payloads no longer hash to their stored seals.  The sweep is
   detection only — classifying a convicted page (view? index? base
   relation?) and repairing it is the maintenance layer's job
   (Warehouse.scrub), which owns the page-to-structure mapping. *)

type report = {
  sr_scanned : int;
  sr_clean : int;
  sr_corrupt : int list;  (* gids convicted (or already quarantined), ascending *)
}

let sweep pool =
  let gids = Buffer_pool.protected_gids pool in
  let corrupt =
    List.filter (fun gid -> not (Buffer_pool.verify pool gid)) gids
  in
  {
    sr_scanned = List.length gids;
    sr_clean = List.length gids - List.length corrupt;
    sr_corrupt = corrupt;
  }

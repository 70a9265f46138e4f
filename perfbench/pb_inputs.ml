(* Seeded inputs of the three workloads.  Everything here is a pure
   function of the seed: the program under test only ever receives the
   generated schemas, batches and tenant specs. *)

module Schema = Vis_catalog.Schema
module Schemas = Vis_workload.Schemas
module Datagen = Vis_workload.Datagen
module Stream = Vis_workload.Stream

(* ---- advise -------------------------------------------------------- *)

(* Request classes, in increasing order of measured latency. *)
type klass = Small | Packed | Mined | Structural

let class_name = function
  | Small -> "small"
  | Packed -> "packed"
  | Mined -> "mined"
  | Structural -> "structural"

let classes = [ Small; Packed; Mined; Structural ]

(* Requests per class in one block of [block_size].  A block is the unit
   the run stops at, so every run sees exactly these shares.  Packed and
   mined requests take about as long as each other, in either order, so
   they get equal shares: sorted by latency the cumulative boundaries are
   0.40, 0.60, 0.80 and 1.0 whichever of the two is faster.  p50 then
   falls inside the packed and mined requests and p90 inside the
   structural ones, each at least 0.10 from a boundary (checked by the
   tests). *)
let class_count = function Small -> 8 | Packed -> 4 | Mined -> 4 | Structural -> 4
let block_size = List.fold_left (fun a c -> a + class_count c) 0 classes

type request = {
  rq_id : int;
  rq_class : klass;
  rq_label : string;
  rq_schema : Schema.t;
  rq_connected_only : bool;
  rq_max_view_rels : int option;
  rq_log_seed : int;  (** query-log seed; read by [Mined] requests only *)
}

(* A multiplicative jitter in [1 - r, 1 + r]. *)
let jitter rng r = 1. -. r +. Random.State.float rng (2. *. r)

let make_request rng ~id klass =
  let star n ~mvr =
    let s =
      Schemas.star ~n_dims:n ~ins_frac:(0.02 *. jitter rng 0.2)
        ~del_frac:(0.002 *. jitter rng 0.2) ()
    in
    (Printf.sprintf "star%d/v%d" n mvr, s, true, Some mvr)
  in
  let label, schema, connected_only, max_view_rels =
    match klass with
    | Small ->
        if Random.State.int rng 3 = 0 then
          ( "chain3",
            Schemas.chain ~n:3 ~ins_frac:(0.01 *. jitter rng 0.3)
              ~del_frac:(0.001 *. jitter rng 0.3) (),
            false,
            None )
        else ("random", Schemas.random ~rng (), false, None)
    (* Packed: at most 62 candidate features, so the bitset evaluator. *)
    | Packed -> if Random.State.bool rng then star 4 ~mvr:3 else star 5 ~mvr:2
    (* Structural: 152 features, beyond the packed encoding.  star-7
       (225 features) and mined star-8 take about three times as long as
       the rest of their class, which would split it in two. *)
    | Structural -> star 6 ~mvr:3
    | Mined -> star 7 ~mvr:2
  in
  {
    rq_id = id;
    rq_class = klass;
    rq_label = label;
    rq_schema = schema;
    rq_connected_only = connected_only;
    rq_max_view_rels = max_view_rels;
    rq_log_seed = Random.State.bits rng;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [advise_requests ~seed ~blocks]: [blocks] blocks of distinct requests,
   each block holding exactly [class_count] requests of every class in a
   seeded order. *)
let advise_requests ~seed ~blocks =
  let rng = Random.State.make [| 0xad; seed |] in
  Array.init blocks (fun b ->
      let kinds =
        Array.of_list
          (List.concat_map (fun c -> List.init (class_count c) (fun _ -> c)) classes)
      in
      shuffle rng kinds;
      Array.mapi (fun i k -> make_request rng ~id:((b * block_size) + i) k) kinds)

let request_digest (r : request) =
  Digest.string
    (Marshal.to_string
       (r.rq_class, r.rq_schema, r.rq_connected_only, r.rq_max_view_rels, r.rq_log_seed)
       [])

(* ---- ingest -------------------------------------------------------- *)

(* A star warehouse whose data pages are about 5x its buffer pool, with
   inserts equal to deletes so the data size stays stationary. *)
let ingest_schema () =
  Schemas.star ~n_dims:4 ~base_card:2000. ~mem_pages:64 ~ins_frac:0.01
    ~del_frac:0.01 ()

let batches_per_group = 4

type ingest = {
  in_schema : Schema.t;
  in_data : Datagen.dataset;
  in_groups : Datagen.batch list array;
      (** consecutive groups, each valid on the state the previous ones
          leave behind, starting from [in_data] *)
}

let ingest_data ~seed =
  let schema = ingest_schema () in
  let rng = Random.State.make [| 0x1a; seed |] in
  (schema, rng, Datagen.generate ~rng schema)

let ingest_inputs ~seed ~groups =
  let schema, rng, data = ingest_data ~seed in
  let cur = ref data in
  let next () =
    let b = Datagen.deltas_evolving ~rng schema !cur in
    cur := Datagen.apply schema !cur b;
    b
  in
  let in_groups =
    Array.init groups (fun _ -> List.init batches_per_group (fun _ -> next ()))
  in
  { in_schema = schema; in_data = data; in_groups }

let group_rows g = List.fold_left (fun a b -> a + Datagen.batch_rows b) 0 g

let groups_digest (i : ingest) =
  Digest.string (Marshal.to_string (i.in_data, i.in_groups) [])

(* ---- serve --------------------------------------------------------- *)

let serve_tenants = 4
let serve_rate = 12.
let serve_zipf = 0.5
let serve_step = Stream.Step { at = 30; factor = 3. }

(* Each tenant's warehouse fits its 256-page pool. *)
let serve_schema () =
  Schemas.validation ~base_card:100. ~mem_pages:256 ~ins_frac:0.02 ~del_frac:0.02 ()

type tenant = { tn_seed : int; tn_rate : float; tn_drift : Stream.drift }

let serve_tenant_specs ~seed =
  Array.init serve_tenants (fun k ->
      {
        tn_seed = seed + k;
        tn_rate = serve_rate *. Stream.zipf_weight ~s:serve_zipf ~rank:k;
        tn_drift = (if k = 0 || k = 2 then serve_step else Stream.Constant);
      })

(* The seeded arrival counts of the first [ticks] ticks, per tenant. *)
let serve_digest ~seed ~ticks =
  let specs = serve_tenant_specs ~seed in
  let arrivals =
    Array.mapi
      (fun k t ->
        Array.init ticks (fun tick ->
            Stream.arrivals ~seed ~tenant:k ~tick:(tick + 1) ~mean:t.tn_rate))
      specs
  in
  Digest.string (Marshal.to_string (specs, arrivals) [])

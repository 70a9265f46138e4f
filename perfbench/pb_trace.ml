(* Timing spans recorded by the benchmark around its own calls into the
   library.  When tracing is off, [span] is a direct call.  Spans are kept
   in memory and written out once the run ends. *)

module Json = Vis_util.Json

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] for a root span *)
  sp_request : int;  (** the operation the span belongs to *)
  sp_name : string;
  sp_start : float;
  sp_stop : float;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ids : int list;  (** innermost first *)
}

let create () = { enabled = false; spans = []; next_id = 0; open_ids = [] }

let span t ~request name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
    t.open_ids <- id :: t.open_ids;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      t.open_ids <- List.tl t.open_ids;
      t.spans <-
        {
          sp_id = id;
          sp_parent = parent;
          sp_request = request;
          sp_name = name;
          sp_start = start;
          sp_stop = stop;
        }
        :: t.spans
    in
    Fun.protect ~finally:finish f
  end

let spans t = List.rev t.spans

(* Per span name: count, total time and self time (duration minus the time
   covered by its direct children), in first-seen order. *)
type layer = { ly_name : string; ly_count : int; ly_total_s : float; ly_self_s : float }

let self_times t =
  let spans = spans t in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        let d = s.sp_stop -. s.sp_start in
        Hashtbl.replace child_time s.sp_parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.sp_stop -. s.sp_start in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_id) in
      match Hashtbl.find_opt acc s.sp_name with
      | Some (n, tot, slf) -> Hashtbl.replace acc s.sp_name (n + 1, tot +. d, slf +. self)
      | None ->
          order := s.sp_name :: !order;
          Hashtbl.replace acc s.sp_name (1, d, self))
    spans;
  List.rev_map
    (fun name ->
      let n, tot, slf = Hashtbl.find acc name in
      { ly_name = name; ly_count = n; ly_total_s = tot; ly_self_s = slf })
    !order

(* Total time of the spans called [name]. *)
let total t name =
  List.fold_left
    (fun a s -> if s.sp_name = name then a +. (s.sp_stop -. s.sp_start) else a)
    0. t.spans

let report_json t =
  let t0 = match spans t with s :: _ -> s.sp_start | [] -> 0. in
  Json.Obj
    [
      ( "self_time",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("name", Json.String l.ly_name);
                   ("count", Json.Int l.ly_count);
                   ("total_ms", Json.Float (1000. *. l.ly_total_s));
                   ("self_ms", Json.Float (1000. *. l.ly_self_s));
                 ])
             (self_times t)) );
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.sp_id);
                   ("parent", Json.Int s.sp_parent);
                   ("request", Json.Int s.sp_request);
                   ("name", Json.String s.sp_name);
                   ("start_us", Json.Float (1e6 *. (s.sp_start -. t0)));
                   ("end_us", Json.Float (1e6 *. (s.sp_stop -. t0)));
                 ])
             (spans t)) );
    ]

let render_self_times t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %8s %12s %12s\n" "span" "count" "total_ms" "self_ms");
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %8d %12.2f %12.2f\n" l.ly_name l.ly_count
           (1000. *. l.ly_total_s) (1000. *. l.ly_self_s)))
    (self_times t);
  Buffer.contents b

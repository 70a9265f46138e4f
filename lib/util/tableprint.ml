type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t cells =
  let ncols = List.length t.headers in
  let n = List.length cells in
  if n > ncols then invalid_arg "Tableprint.add_row: too many cells";
  let padded =
    if n = ncols then cells
    else cells @ List.init (ncols - n) (fun _ -> "")
  in
  t.rows <- padded :: t.rows

(* Display width: UTF-8 continuation bytes take no column. *)
let length s =
  String.fold_left
    (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
    0 s

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width col =
    List.fold_left (fun w row -> max w (length (List.nth row col))) 0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  let emit_row row =
    let line =
      String.concat "  "
        (List.mapi
           (fun i cell ->
             cell ^ String.make (List.nth widths i - length cell) ' ')
           row)
    in
    (* Trailing empty cells leave no trailing blanks. *)
    let n = ref (String.length line) in
    while !n > 0 && line.[!n - 1] = ' ' do decr n done;
    Buffer.add_string buf (String.sub line 0 !n);
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  let total =
    List.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)

let fmt_float ?(digits = 2) x = Printf.sprintf "%.*f" digits x

let fmt_compact x =
  if Float.is_integer x && Float.abs x < 1e15 then begin
    let s = Printf.sprintf "%.0f" x in
    (* Group thousands for readability of large I/O counts. *)
    let n = String.length s in
    let neg = n > 0 && s.[0] = '-' in
    let digits = if neg then String.sub s 1 (n - 1) else s in
    let dn = String.length digits in
    if dn <= 4 then s
    else begin
      let buf = Buffer.create (dn + (dn / 3)) in
      if neg then Buffer.add_char buf '-';
      String.iteri
        (fun i c ->
          if i > 0 && (dn - i) mod 3 = 0 then Buffer.add_char buf ',';
          Buffer.add_char buf c)
        digits;
      Buffer.contents buf
    end
  end
  else Printf.sprintf "%.2f" x

(* ------------------------------------------------------------------ *)
(* Reports: a JSON value rendered as titled tables. *)

let fmt_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 1. then Printf.sprintf "%.2f" x
  else Printf.sprintf "%.4g" x

let is_scalar = function
  | Json.Obj _ -> false
  | Json.List items ->
      List.for_all
        (function Json.Obj _ | Json.List _ -> false | _ -> true)
        items
  | _ -> true

let rec cell = function
  | Json.Null -> "-"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float x -> fmt_number x
  | Json.String s -> s
  | Json.List [] -> "-"
  | Json.List items -> String.concat ", " (List.map cell items)
  | Json.Obj _ as v -> Json.to_string v

let is_obj = function Json.Obj _ -> true | _ -> false

let of_json ?(title = "") v =
  let buf = Buffer.create 1024 in
  let table title headers rows =
    if rows <> [] then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      if title <> "" then Buffer.add_string buf (title ^ "\n");
      let t = create headers in
      List.iter (add_row t) rows;
      Buffer.add_string buf (render t)
    end
  in
  let member title key = if title = "" then key else title ^ "." ^ key in
  let rec go title = function
    | Json.Obj members ->
        table title [ "name"; "value" ]
          (List.filter_map
             (fun (k, v) -> if is_scalar v then Some [ k; cell v ] else None)
             members);
        List.iter
          (fun (k, v) -> if not (is_scalar v) then go (member title k) v)
          members
    | Json.List items when List.for_all is_obj items ->
        let rows = List.map Json.fields items in
        let headers =
          List.fold_left
            (fun acc row ->
              List.fold_left
                (fun acc (k, v) ->
                  if is_scalar v && not (List.mem k acc) then acc @ [ k ]
                  else acc)
                acc row)
            [] rows
        in
        table title headers
          (List.map
             (fun row ->
               List.map
                 (fun k ->
                   match List.assoc_opt k row with
                   | Some v when is_scalar v -> cell v
                   | Some _ | None -> "")
                 headers)
             rows);
        List.iteri
          (fun i row ->
            List.iter
              (fun (k, v) ->
                if not (is_scalar v) then
                  go (member (Printf.sprintf "%s[%d]" title i) k) v)
              row)
          rows
    | scalar -> table title [ "value" ] [ [ cell scalar ] ]
  in
  go title v;
  Buffer.contents buf

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing. *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf x =
  if not (Float.is_finite x) then
    (* JSON has no NaN/infinity. *)
    Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let to_string ?indent v =
  let buf = Buffer.create 256 in
  let pad level =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * level) ' ')
  in
  let sep () = match indent with None -> () | Some _ -> Buffer.add_char buf ' ' in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> float_to buf x
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            go (level + 1) item)
          items;
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (name, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            escape_to buf name;
            Buffer.add_char buf ':';
            sep ();
            go (level + 1) item)
          fields;
        pad level;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Containers may nest at most this deep.  A typed [Parse_error], not a
   stack overflow, is the contract for adversarial inputs like ["[[[[…"]. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c' at %d, found '%c'" c !pos c'
    | None -> fail "expected '%c' at %d, found end of input" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "invalid literal at %d" !pos
  in
  (* UTF-8 encode one scalar value (RFC 3629). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let read_hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape at %d" !pos;
      let hex = String.sub s !pos 4 in
      let code =
        try int_of_string ("0x" ^ hex)
        with _ -> fail "bad \\u escape at %d" !pos
      in
      pos := !pos + 4;
      code
    in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string at %d" !pos
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
              advance ();
              let code = read_hex4 () in
              if code >= 0xD800 && code <= 0xDBFF then begin
                (* High surrogate: must pair with a following \u low
                   surrogate, together encoding one supplementary-plane
                   character. *)
                if
                  not
                    (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                then fail "unpaired surrogate \\u escape at %d" !pos;
                pos := !pos + 2;
                let low = read_hex4 () in
                if not (low >= 0xDC00 && low <= 0xDFFF) then
                  fail "unpaired surrogate \\u escape at %d" !pos;
                add_utf8 buf
                  (0x10000
                  + ((code - 0xD800) lsl 10)
                  + (low - 0xDC00))
              end
              else if code >= 0xDC00 && code <= 0xDFFF then
                fail "unpaired surrogate \\u escape at %d" !pos
              else add_utf8 buf code
          | _ -> fail "bad escape at %d" !pos);
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some x ->
            (* "1e999" parses to infinity; JSON has no non-finite numbers
               and silently admitting one would round-trip as null. *)
            if not (Float.is_finite x) then
              fail "non-finite number %S at %d" text start;
            Float x
        | None -> fail "invalid number %S at %d" text start)
  in
  (* [depth] counts enclosing containers; opening one at [max_depth] is
     the typed error. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        if depth >= max_depth then
          fail "nesting deeper than %d levels at %d" max_depth !pos;
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        if depth >= max_depth then
          fail "nesting deeper than %d levels at %d" max_depth !pos;
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (name, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_number ()
        else fail "unexpected character '%c' at %d" c !pos
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing characters at %d" !pos;
  v

let member name = function
  | Obj fields -> ( match List.assoc_opt name fields with Some v -> v | None -> Null)
  | _ -> Null

let fields = function Obj fields -> fields | _ -> []

let to_float = function
  | Int i -> float_of_int i
  | Float x -> x
  | v -> fail "expected a number, found %s" (to_string v)

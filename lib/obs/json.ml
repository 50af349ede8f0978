(** JSON values; see the interface. Serialisation is deterministic by
    construction: fields keep insertion order and floats use a fixed
    ["%.6f"] format (microsecond precision is plenty for durations). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || f = infinity || f = neg_infinity then
        (* no NaN/Inf in JSON; clamp deterministically *)
        Buffer.add_string buf "null"
      else Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | String s -> add_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          emit buf x)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let to_channel oc j =
  output_string oc (to_string j);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent over the string)                          *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* The string literal opening at [s.[pos0]]: its value and the offset
   just past its closing quote. Raises [Bad]. *)
let string_lit_at s pos0 =
  let n = String.length s in
  let pos = ref pos0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  (match peek () with Some '"' -> advance () | _ -> fail "expected \"");
  let buf = Buffer.create 16 in
  let rec go () =
    match peek () with
    | None -> fail "unterminated string"
    | Some '"' -> advance ()
    | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            (* BMP only; enough for the reports we emit *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> fail "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
  in
  go ();
  (Buffer.contents buf, !pos)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    let v, next = string_lit_at s !pos in
    pos := next;
    v
  in
  (* RFC 8259 number grammar: an optional minus, then [0] or a nonzero-led
     digit run, then an optional [. digits] fraction and an optional
     [e|E [+|-] digits] exponent — nothing else.
     OCaml's [int_of_string]/[float_of_string] are far more liberal (leading
     '+', interior signs, '0x', '5.', …), so the token is validated
     character by character before conversion; a sign or digit sequence in
     any other position is a parse error, never a silently-read value. *)
  let number () =
    let is_digit = function '0' .. '9' -> true | _ -> false in
    let start = !pos in
    let is_float = ref false in
    let digits1 () =
      match peek () with
      | Some c when is_digit c ->
          advance ();
          let rec go () =
            match peek () with
            | Some c when is_digit c -> advance (); go ()
            | _ -> ()
          in
          go ()
      | _ -> fail "bad number"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    (* integer part: 0, or a nonzero-led digit run (no leading zeros) *)
    (match peek () with
    | Some '0' -> advance ()
    | Some c when is_digit c -> digits1 ()
    | _ -> fail "bad number");
    (match peek () with
    | Some '.' ->
        is_float := true;
        advance ();
        digits1 ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits1 ()
    | _ -> ());
    (* a dangling sign or digit here is not part of any JSON token — reject
       now with a number error instead of "trailing garbage" later *)
    (match peek () with
    | Some ('0' .. '9' | '+' | '-' | '.' | 'e' | 'E') -> fail "bad number"
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_lit ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (f :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (f :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
  in
  try
    let v = value () in
    let rec trailing () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          trailing ()
      | Some _ -> fail "trailing garbage"
      | None -> ()
    in
    trailing ();
    Ok v
  with
  | Bad msg -> Error msg
  | Failure _ -> Error "malformed input"

let string_at s pos =
  try Ok (string_lit_at s pos) with
  | Bad msg -> Error msg
  | Failure _ -> Error "malformed string"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec map_floats f = function
  | Float x -> Float (f x)
  | List l -> List (List.map (map_floats f) l)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, map_floats f v)) fields)
  | j -> j

let rec sort_keys = function
  | List l -> List (List.map sort_keys l)
  | Obj fields ->
      Obj
        (fields
        |> List.map (fun (k, v) -> (k, sort_keys v))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | j -> j

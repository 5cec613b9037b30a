type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

(* --- emission ------------------------------------------------------------- *)

let escape_string buf s =
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

let float_to_string f =
  if f = 0. && Float.sign_bit f then "-0.0" (* "-0" reads back as the int 0 *)
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if
        digits = 17
        || Int64.equal
             (Int64.bits_of_float (float_of_string s))
             (Int64.bits_of_float f)
      then s
      else shortest (digits + 1)
    in
    shortest 15

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/inf literals; map them to null. *)
      if Float.is_finite f then Buffer.add_string buf (float_to_string f)
      else Buffer.add_string buf "null"
  | String s -> escape_string buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  emit buf v;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------------- *)

exception Parse_error of { offset : int; message : string }

type parser_state = { src : string; mutable pos : int }

let fail p message = raise (Parse_error { offset = p.pos; message })

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let skip_ws p =
  while
    p.pos < String.length p.src
    &&
    match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some d when d = c -> p.pos <- p.pos + 1
  | Some d -> fail p (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail p (Printf.sprintf "expected %C, found end of input" c)

let literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src
    && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "expected %s" word)

let hex_digit p c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail p "invalid hex escape"

(* Encode a code point as UTF-8.  Surrogate pairs are combined by the
   string scanner below; unpaired surrogates become U+FFFD. *)
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

let parse_hex4 p =
  if p.pos + 4 > String.length p.src then fail p "truncated \\u escape";
  let v =
    (hex_digit p p.src.[p.pos] lsl 12)
    lor (hex_digit p p.src.[p.pos + 1] lsl 8)
    lor (hex_digit p p.src.[p.pos + 2] lsl 4)
    lor hex_digit p p.src.[p.pos + 3]
  in
  p.pos <- p.pos + 4;
  v

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if p.pos >= String.length p.src then fail p "unterminated string";
    match p.src.[p.pos] with
    | '"' -> p.pos <- p.pos + 1
    | '\\' ->
        p.pos <- p.pos + 1;
        (if p.pos >= String.length p.src then fail p "unterminated escape"
         else
           match p.src.[p.pos] with
           | '"' ->
               Buffer.add_char buf '"';
               p.pos <- p.pos + 1
           | '\\' ->
               Buffer.add_char buf '\\';
               p.pos <- p.pos + 1
           | '/' ->
               Buffer.add_char buf '/';
               p.pos <- p.pos + 1
           | 'b' ->
               Buffer.add_char buf '\b';
               p.pos <- p.pos + 1
           | 'f' ->
               Buffer.add_char buf '\012';
               p.pos <- p.pos + 1
           | 'n' ->
               Buffer.add_char buf '\n';
               p.pos <- p.pos + 1
           | 'r' ->
               Buffer.add_char buf '\r';
               p.pos <- p.pos + 1
           | 't' ->
               Buffer.add_char buf '\t';
               p.pos <- p.pos + 1
           | 'u' ->
               p.pos <- p.pos + 1;
               let cp = parse_hex4 p in
               let cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then
                   (* High surrogate: combine with a following \uDC00-DFFF. *)
                   if
                     p.pos + 6 <= String.length p.src
                     && p.src.[p.pos] = '\\'
                     && p.src.[p.pos + 1] = 'u'
                   then begin
                     let saved = p.pos in
                     p.pos <- p.pos + 2;
                     let lo = parse_hex4 p in
                     if lo >= 0xDC00 && lo <= 0xDFFF then
                       0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                     else begin
                       p.pos <- saved;
                       0xFFFD
                     end
                   end
                   else 0xFFFD
                 else if cp >= 0xDC00 && cp <= 0xDFFF then 0xFFFD
                 else cp
               in
               add_utf8 buf cp
           | c -> fail p (Printf.sprintf "invalid escape \\%C" c));
        go ()
    | c when Char.code c < 0x20 -> fail p "unescaped control character"
    | c ->
        Buffer.add_char buf c;
        p.pos <- p.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_int = ref true in
  if peek p = Some '-' then p.pos <- p.pos + 1;
  let digits () =
    let n0 = p.pos in
    while
      p.pos < String.length p.src
      && match p.src.[p.pos] with '0' .. '9' -> true | _ -> false
    do
      p.pos <- p.pos + 1
    done;
    if p.pos = n0 then fail p "expected digit"
  in
  digits ();
  (match peek p with
  | Some '.' ->
      is_int := false;
      p.pos <- p.pos + 1;
      digits ()
  | _ -> ());
  (match peek p with
  | Some ('e' | 'E') ->
      is_int := false;
      p.pos <- p.pos + 1;
      (match peek p with
      | Some ('+' | '-') -> p.pos <- p.pos + 1
      | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if !is_int then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* beyond 63-bit range *)
  else Float (float_of_string text)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some '"' -> String (parse_string p)
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws p;
          let k = parse_string p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          fields := (k, v) :: !fields;
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              members ()
          | _ -> expect p '}'
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value p in
          items := v :: !items;
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              elements ()
          | _ -> expect p ']'
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error
          (Printf.sprintf "offset %d: trailing garbage after JSON value" p.pos)
      else Ok v
  | exception Parse_error { offset; message } ->
      Error (Printf.sprintf "offset %d: %s" offset message)

(* --- accessors ------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None

(* Fails when an OCaml source uses Stdlib's polymorphic [min], [max]
   or [compare], qualified ([Stdlib.min]) or bare ([min a b]).

     no_poly_compare.exe FILE.ml...

   Comments, string and character literals are skipped.  A bare name
   right after [let]/[and]/[val]/[external] defines it rather than
   uses it, one followed by [:] or [=] is a record field, and one
   right after [~] or [?] is a label; none of those are reported. *)

let banned = [ "min"; "max"; "compare" ]
let definers = [ "let"; "and"; "val"; "external"; "method"; "rec" ]

let is_ident_start c =
  c = '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')

let is_ident_char c = is_ident_start c || ('0' <= c && c <= '9') || c = '\''

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Offending (line, token) pairs in [src], in source order. *)
let scan src =
  let n = String.length src in
  let line = ref 1 in
  let found = ref [] in
  let prev = ref "" in
  let at i = if i < n then src.[i] else '\000' in
  (* Index just past the string literal opening at [i]. *)
  let rec skip_string i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | '\n' ->
        incr line;
        skip_string (i + 1)
      | _ -> skip_string (i + 1)
  in
  (* Index just past the (possibly nested) comment whose body starts
     at [i]. *)
  let rec skip_comment depth i =
    if i >= n || depth = 0 then i
    else if at i = '(' && at (i + 1) = '*' then skip_comment (depth + 1) (i + 2)
    else if at i = '*' && at (i + 1) = ')' then skip_comment (depth - 1) (i + 2)
    else if at i = '"' then skip_comment depth (skip_string (i + 1))
    else begin
      if at i = '\n' then incr line;
      skip_comment depth (i + 1)
    end
  in
  let rec next_nonspace i =
    if i < n && (at i = ' ' || at i = '\t' || at i = '\n' || at i = '\r') then
      next_nonspace (i + 1)
    else at i
  in
  let rec go i =
    if i < n then
      match src.[i] with
      | '\n' ->
        incr line;
        go (i + 1)
      | '(' when at (i + 1) = '*' -> go (skip_comment 1 (i + 2))
      | '"' ->
        prev := "";
        go (skip_string (i + 1))
      | '\'' when at (i + 1) = '\\' ->
        (* An escaped character literal: skip the escaped character,
           which may itself be a quote, then up to the closing one. *)
        let j = ref (i + 3) in
        while !j < n && src.[!j] <> '\'' do incr j done;
        go (!j + 1)
      | '\'' when at (i + 2) = '\'' -> go (i + 3)
      | c when is_ident_start c ->
        (* A dotted path: Stdlib.min, t.min, Int.max ... *)
        let j = ref i in
        while
          !j < n
          && (is_ident_char src.[!j]
             || (src.[!j] = '.' && is_ident_start (at (!j + 1))))
        do
          incr j
        done;
        let tok = String.sub src i (!j - i) in
        let qualified_use = List.exists (fun b -> tok = "Stdlib." ^ b) banned in
        let bare_use =
          List.mem tok banned
          && (not (List.mem !prev definers))
          && (i = 0 || not (List.mem src.[i - 1] [ '~'; '?'; '.' ]))
          && not (List.mem (next_nonspace !j) [ ':'; '=' ])
        in
        if qualified_use || bare_use then found := (!line, tok) :: !found;
        prev := tok;
        go !j
      | ' ' | '\t' | '\r' -> go (i + 1)
      | _ ->
        prev := "";
        go (i + 1)
  in
  go 0;
  List.rev !found

let () =
  let bad = ref 0 in
  Array.iteri
    (fun k path ->
      if k > 0 then
        List.iter
          (fun (line, tok) ->
            incr bad;
            let name =
              match String.rindex_opt tok '.' with
              | Some d -> String.sub tok (d + 1) (String.length tok - d - 1)
              | None -> tok
            in
            Printf.eprintf
              "%s:%d: polymorphic Stdlib.%s; use Int.%s, Simtime.%s or a \
               written-out float compare\n"
              path line name name name)
          (scan (read_file path)))
    Sys.argv;
  if !bad > 0 then exit 1

(* Campaign manifest: the append-only checkpoint log of a supervised
   campaign, and the campaign's only persistence.  Layout:

     wtcp-campaign <engine_version>\n
     id <campaign id>\n
     spec <campaign spec line>\n
     cells <n>\n
     done <idx> <payload key> <payload>\n
     quar <idx> <attempts> <error>\n

   The header is written (and flushed) before any cell settles;
   completion records are appended as cells settle and flushed every
   few records.  A [done] record carries the cell's payload itself, so
   a resume restores a campaign from this one file.  The payload or
   error is the rest of its line, with '%' and '\n' percent-encoded;
   records written when every byte outside [A-Za-z0-9._/=-] was
   encoded decode the same way and still load.  A process killed
   mid-write can tear at most the final line (appends are
   prefix-durable for regular files), so a load drops an unterminated
   tail and treats anything unparseable -- a payload that does not
   decode included -- as "not settled": the worst a torn manifest
   costs is re-simulating the cells whose records were not yet
   flushed. *)

let magic = "wtcp-campaign"

type entry =
  | Done of { key : string; payload : string }
  | Quarantined of { attempts : int; error : string }

type header = { id : string; spec : string; cells : int }
type loaded = { header : header; entries : entry option array }
type t = { oc : out_channel }

(* Percent-encoding for the payload and error fields, so every
   record stays on one line. *)
let hex_digit = "0123456789abcdef"

let encode_token s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' | '\n' ->
        Buffer.add_char b '%';
        Buffer.add_char b hex_digit.[Char.code c lsr 4];
        Buffer.add_char b hex_digit.[Char.code c land 15]
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let decode_token s =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  (* A '%' without two hex digits after it is damage, never a literal:
     [encode_token] escapes every '%'. *)
  let rec go i =
    if i < n then
      if s.[i] = '%' then begin
        if i + 2 >= n then raise Exit;
        Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  match go 0 with
  | () -> Some (Buffer.contents b)
  | exception Exit -> None

let path ~dir ~id = Filename.concat dir (id ^ ".manifest")

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Sys.mkdir p 0o755 with Sys_error _ -> ())
    end
  in
  go path

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let r =
      match really_input_string ic (in_channel_length ic) with
      | s -> Some s
      | exception (End_of_file | Sys_error _) -> None
    in
    close_in_noerr ic;
    r

(* "prefix rest-of-line" split; None if the line lacks the prefix. *)
let strip_prefix line prefix =
  let np = String.length prefix in
  if String.length line > np && String.sub line 0 np = prefix && line.[np] = ' '
  then Some (String.sub line (np + 1) (String.length line - np - 1))
  else None

(* "tag a b rest-of-line": a record's three space-free fields and its
   free-text tail, which may hold spaces. *)
let record_fields line =
  let ( let* ) = Option.bind in
  let cut from = String.index_from_opt line from ' ' in
  let sub a b = String.sub line a (b - a) in
  let* i = cut 0 in
  let* j = cut (i + 1) in
  let* k = cut (j + 1) in
  Some (sub 0 i, sub (i + 1) j, sub (j + 1) k, sub (k + 1) (String.length line))

let load ~path =
  match read_file path with
  | None -> Error "manifest unreadable"
  | Some raw -> (
    let lines = String.split_on_char '\n' raw in
    (* Drop the torn tail: a complete manifest ends with '\n', whose
       split leaves a final "" element we discard anyway. *)
    let lines =
      match List.rev lines with
      | _tail :: rest -> List.rev rest
      | [] -> []
    in
    match lines with
    | l1 :: l2 :: l3 :: l4 :: body -> (
      match
        ( strip_prefix l1 magic,
          strip_prefix l2 "id",
          strip_prefix l3 "spec",
          Option.bind (strip_prefix l4 "cells") int_of_string_opt )
      with
      | Some version, _, _, _
        when version <> Repcache.Fingerprint.engine_version ->
        Error
          (Printf.sprintf "minted by engine %s, this is %s" version
             Repcache.Fingerprint.engine_version)
      | Some _, Some id, Some spec, Some cells when cells >= 0 ->
        let entries = Array.make cells None in
        List.iter
          (fun line ->
            match record_fields line with
            | Some ("done", idx, key, payload) -> (
              match (int_of_string_opt idx, decode_token payload) with
              | Some i, Some payload when i >= 0 && i < cells ->
                entries.(i) <- Some (Done { key; payload })
              | _ -> ())
            | Some ("quar", idx, attempts, err) -> (
              match
                ( int_of_string_opt idx,
                  int_of_string_opt attempts,
                  decode_token err )
              with
              | Some i, Some attempts, Some error when i >= 0 && i < cells ->
                entries.(i) <- Some (Quarantined { attempts; error })
              | _ -> ())
            | _ -> () (* torn or foreign line: not settled *))
          body;
        Ok { header = { id; spec; cells }; entries }
      | _ -> Error "malformed manifest header")
    | _ -> Error "truncated manifest header")

let create ~path ~id ~spec ~cells =
  if String.contains spec '\n' then
    invalid_arg "Manifest.create: spec must be a single line";
  mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  Printf.fprintf oc "%s %s\nid %s\nspec %s\ncells %d\n" magic
    Repcache.Fingerprint.engine_version id spec cells;
  flush oc;
  { oc }

(* Cut a torn final line off before appending: once the next record
   terminated it, a prefix of a record could parse as a settled cell
   with a truncated payload. *)
let open_append ~path =
  (match read_file path with
  | Some s when not (String.ends_with ~suffix:"\n" s) ->
    Unix.truncate path
      (match String.rindex_opt s '\n' with Some k -> k + 1 | None -> 0)
  | _ -> ());
  { oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path }

let append t ~idx entry =
  match entry with
  | Done { key; payload } ->
    Printf.fprintf t.oc "done %d %s %s\n" idx key (encode_token payload)
  | Quarantined { attempts; error } ->
    Printf.fprintf t.oc "quar %d %d %s\n" idx attempts (encode_token error)

let flush t = flush t.oc
let close t = close_out_noerr t.oc

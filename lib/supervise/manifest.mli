(** Campaign manifest: the append-only checkpoint log of a supervised
    campaign, and its only persistence.

    A manifest records every settled cell of a campaign together with
    its payload, so a resume needs this one file and nothing else.  The
    four-line header pins the minting engine version, the campaign id
    (a digest of the spec plus every cell key, so a manifest can never
    be replayed against a different campaign shape) and the campaign
    spec — the single parseable line [wtcp resume] uses to rebuild the
    cells.  Each settled cell then appends one record: [done <idx>
    <key> <payload>] or [quar <idx> <attempts> <error>].  The payload
    or error is the rest of the line, with only ['%'] and newline
    percent-encoded so a record stays one line; records from
    manifests that encoded every byte outside [[A-Za-z0-9._/=-]] load
    unchanged.

    Durability contract: the header is flushed before any cell runs;
    records are appended as cells settle and flushed every few
    records.  A kill can tear at most the final line, which {!load}
    drops (along with any otherwise unparseable line or a payload that
    does not decode — unparseable means "not settled", never an
    error), so the worst a torn manifest costs is re-simulating the
    cells whose records had not been flushed.  Manifests written
    before payloads moved into the records ([done <idx> <key>]) load
    with every [done] cell unsettled. *)

type entry =
  | Done of { key : string; payload : string }
      (** settled; [payload] is the cell's encoded outcome *)
  | Quarantined of { attempts : int; error : string }
      (** permanently failed after [attempts] tries *)

type header = { id : string; spec : string; cells : int }
type loaded = { header : header; entries : entry option array }

type t
(** An open manifest handle (append side). *)

val path : dir:string -> id:string -> string
(** [dir/<id>.manifest]. *)

val load : path:string -> (loaded, string) result
(** Parse a manifest.  [Error] only on an unreadable file, a damaged
    header or an engine-version mismatch; body damage degrades to
    unsettled cells. *)

val create : path:string -> id:string -> spec:string -> cells:int -> t
(** Write a fresh manifest (truncating any predecessor) and flush the
    header.  Creates the directory as needed.
    @raise Invalid_argument if [spec] spans multiple lines. *)

val open_append : path:string -> t
(** Reopen an existing manifest for appending (the resume path).  A
    torn final line is cut off first, so no prefix of it can become a
    complete record once the next record follows. *)

val append : t -> idx:int -> entry -> unit
(** Buffer one completion record; call {!flush} to make it durable. *)

val flush : t -> unit
val close : t -> unit

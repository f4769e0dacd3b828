(** Hash tables keyed by [int].

    [Int.hash] equals [Hashtbl.hash], so buckets and iteration order are
    exactly those of a generic [(int, 'a) Hashtbl.t]; lookups compare
    keys with [Int.equal] instead of the polymorphic [compare]. *)

include Hashtbl.S with type key = int

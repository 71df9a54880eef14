(** Binary codec for detector snapshots.

    A snapshot is an opaque byte payload; engines build one with {!Enc} and
    rebuild their state with {!Dec}.  The versioned, checksummed container
    around a payload (the [.ftc] format) lives in [Ft_snapshot.Checkpoint] —
    this module only defines the wire primitives shared by every engine.

    All integers are zigzag-mapped LEB128 varints, so the [-1] sentinels
    pervading detector state cost one byte.  Decoding is total: any
    malformed input raises {!Corrupt} (which the container layer converts
    into a clean [Error]) — never an out-of-bounds access, and never an
    allocation larger than the input itself (lengths are validated against
    the bytes remaining before [Array.init] trusts them). *)

exception Corrupt of string

val expect : bool -> string -> unit
(** [expect cond msg] raises [Corrupt msg] unless [cond] — for engine-side
    consistency checks during decoding. *)

type t = string
(** A snapshot payload. *)

module Enc : sig
  type t

  val create : unit -> t
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val bool_array : t -> bool array -> unit

  val option : t -> ('a -> unit) -> 'a option -> unit
  (** [option enc f v] writes a presence tag, then [f] on the contents. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Length-prefixed, elements in list order. *)

  val keyed : t -> n:int -> is_default:(int -> bool) -> (int -> unit) -> unit
  (** [keyed enc ~n ~is_default f] writes a {e keyed section} over the
      universe [0 .. n-1]: [n], then the number of keys [x] with
      [not (is_default x)], then, for each such [x] in increasing order,
      [x] followed by whatever [f x] writes.  Keys at their defaults cost
      nothing, so the section's size follows the state the engine holds,
      not the universe it was sized for — how every engine encodes its
      per-location state. *)

  val to_snap : t -> string
end

module Dec : sig
  type t

  val of_snap : string -> t
  val int : t -> int
  val bool : t -> bool
  val string : t -> string
  val int_array : t -> int array

  val int_array_n : t -> int -> int array
  (** Decode an int array and check its length is exactly [n]. *)

  val bool_array : t -> bool array

  val bool_array_n : t -> int -> bool array
  (** Decode a bool array and check its length is exactly [n]. *)

  val option : t -> (unit -> 'a) -> 'a option
  val list : t -> (unit -> 'a) -> 'a list

  val keyed : t -> n:int -> (int -> unit) -> unit
  (** Decode a section written by {!Enc.keyed}, calling [f x] once per
      stored key in increasing order; the caller leaves every other key at
      its default.  Raises {!Corrupt}, before reading any entry, when the
      stored universe is not [n] or the entry count exceeds the bytes left,
      and, at the offending entry, when a key is outside [0 .. n-1],
      repeats the previous key or is below it. *)

  val finish : t -> unit
  (** Raise {!Corrupt} unless every payload byte has been consumed. *)
end

(* Binary codec for detector snapshots.

   A snapshot payload is a flat byte string built from zigzag varints; the
   container format (magic, version, checksum) lives in Ft_snapshot, which
   also owns file I/O.  Everything here is hardened the same way the .ftb
   decoder is: a length prefix is checked against the bytes actually
   remaining before any allocation proportional to it, and every malformed
   read raises [Corrupt] — never an out-of-bounds access or an OOM. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let expect cond msg = if not cond then raise (Corrupt msg)

type t = string

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  (* zigzag-mapped LEB128, so small negative ints (the ubiquitous -1
     sentinels) stay one byte *)
  let int b n =
    let rec loop n =
      if n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7F)));
        loop (n lsr 7)
      end
    in
    loop ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let bool b v = int b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let bool_array b a =
    int b (Array.length a);
    Array.iter (bool b) a

  let option b f = function
    | None -> int b 0
    | Some v ->
      int b 1;
      f v

  let list b f xs =
    int b (List.length xs);
    List.iter f xs

  (* Two passes over [is_default]: the count goes first so the decoder can
     bound it against the bytes left before reading any entry. *)
  let keyed b ~n ~is_default f =
    int b n;
    let count = ref 0 in
    for x = 0 to n - 1 do
      if not (is_default x) then incr count
    done;
    int b !count;
    for x = 0 to n - 1 do
      if not (is_default x) then begin
        int b x;
        f x
      end
    done

  let to_snap = Buffer.contents
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_snap data = { data; pos = 0 }

  let remaining d = String.length d.data - d.pos

  let byte d =
    if d.pos >= String.length d.data then corrupt "truncated snapshot"
    else begin
      let c = Char.code (String.unsafe_get d.data d.pos) in
      d.pos <- d.pos + 1;
      c
    end

  let int d =
    let rec loop shift acc =
      if shift > 62 then corrupt "varint too long"
      else begin
        let b = byte d in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else loop (shift + 7) acc
      end
    in
    let z = loop 0 0 in
    (z lsr 1) lxor (-(z land 1))

  let bool d =
    match int d with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad boolean %d" n

  (* Every encoded element costs at least one byte, so a length that exceeds
     the remaining bytes is corrupt — checked before allocating. *)
  let length d =
    let n = int d in
    if n < 0 || n > remaining d then corrupt "bad length %d (%d bytes left)" n (remaining d)
    else n

  let string d =
    let n = length d in
    let s = String.sub d.data d.pos n in
    d.pos <- d.pos + n;
    s

  let int_array d = Array.init (length d) (fun _ -> int d)

  let int_array_n d n =
    let a = int_array d in
    expect (Array.length a = n)
      (Printf.sprintf "array length %d, expected %d" (Array.length a) n);
    a

  let bool_array d = Array.init (length d) (fun _ -> bool d)

  let bool_array_n d n =
    let a = bool_array d in
    expect (Array.length a = n)
      (Printf.sprintf "array length %d, expected %d" (Array.length a) n);
    a

  let option d f =
    match int d with
    | 0 -> None
    | 1 -> Some (f ())
    | n -> corrupt "bad option tag %d" n

  let list d f = List.init (length d) (fun _ -> f ())

  (* Every entry costs at least its key byte, so a count above the bytes
     left is corrupt; keys must rise strictly, which also bounds the count
     by the universe. *)
  let keyed d ~n f =
    let stored = int d in
    if stored <> n then corrupt "keyed section over %d keys, expected %d" stored n;
    let count = int d in
    if count < 0 || count > remaining d then
      corrupt "keyed section of %d entries (%d bytes left)" count (remaining d);
    let prev = ref (-1) in
    for _ = 1 to count do
      let x = int d in
      if x < 0 || x >= n then corrupt "keyed section key %d outside 0..%d" x (n - 1)
      else if x = !prev then corrupt "keyed section repeats key %d" x
      else if x < !prev then corrupt "keyed section key %d after %d" x !prev;
      prev := x;
      f x
    done

  let finish d = expect (remaining d = 0) "trailing bytes after snapshot"
end

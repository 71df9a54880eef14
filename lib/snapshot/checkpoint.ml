module Snap = Ft_core.Snap
module Engine = Ft_core.Engine

type meta = {
  engine : Engine.id;
  sampler : string;
  nthreads : int;
  nlocks : int;
  nlocs : int;
  clock_size : int;
  shards : int;
  next_index : int;
  byte_offset : int;
}

type t = { meta : meta; detector : Snap.t }

let magic = "FTCK"
let version = 3

(* magic + version byte + 8-byte little-endian FNV-1a 64 checksum *)
let header_len = String.length magic + 1 + 8

(* A plain indexed loop: the accumulator stays an unboxed local, where a
   closure over an [Int64] ref boxes it at every byte. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  !h

let to_string t =
  let enc = Snap.Enc.create () in
  Snap.Enc.string enc (Engine.name t.meta.engine);
  Snap.Enc.string enc t.meta.sampler;
  Snap.Enc.int enc t.meta.nthreads;
  Snap.Enc.int enc t.meta.nlocks;
  Snap.Enc.int enc t.meta.nlocs;
  Snap.Enc.int enc t.meta.clock_size;
  Snap.Enc.int enc t.meta.shards;
  Snap.Enc.int enc t.meta.next_index;
  Snap.Enc.int enc t.meta.byte_offset;
  Snap.Enc.string enc t.detector;
  let payload = Snap.Enc.to_snap enc in
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (fnv64 payload);
  Buffer.add_bytes b sum;
  Buffer.add_string b payload;
  Buffer.contents b

let of_string s =
  if String.length s < header_len then Error "checkpoint truncated (shorter than its header)"
  else if String.sub s 0 (String.length magic) <> magic then
    Error "bad magic number (not a FreshTrack checkpoint)"
  else begin
    let v = Char.code s.[String.length magic] in
    if v <> version then Error (Printf.sprintf "unsupported checkpoint version %d" v)
    else begin
      let stored = String.get_int64_le s (String.length magic + 1) in
      let payload = String.sub s header_len (String.length s - header_len) in
      if not (Int64.equal (fnv64 payload) stored) then
        Error "checkpoint checksum mismatch (corrupt or truncated)"
      else
        try
          let dec = Snap.Dec.of_snap payload in
          let ename = Snap.Dec.string dec in
          match Engine.of_name ename with
          | None -> Error (Printf.sprintf "checkpoint names unknown engine %S" ename)
          | Some engine ->
            let sampler = Snap.Dec.string dec in
            let nthreads = Snap.Dec.int dec in
            let nlocks = Snap.Dec.int dec in
            let nlocs = Snap.Dec.int dec in
            let clock_size = Snap.Dec.int dec in
            let shards = Snap.Dec.int dec in
            let next_index = Snap.Dec.int dec in
            let byte_offset = Snap.Dec.int dec in
            let detector = Snap.Dec.string dec in
            Snap.Dec.finish dec;
            if nthreads <= 0 || nlocks < 0 || nlocs < 0 then
              Error "checkpoint universe is malformed"
            else if clock_size < nthreads then
              Error "checkpoint clock size below thread count"
            else if shards < 0 then Error "checkpoint shard count is negative"
            else if next_index < 0 then Error "checkpoint event index is negative"
            else if byte_offset < -1 then Error "checkpoint byte offset is malformed"
            else
              Ok
                {
                  meta =
                    {
                      engine;
                      sampler;
                      nthreads;
                      nlocks;
                      nlocs;
                      clock_size;
                      shards;
                      next_index;
                      byte_offset;
                    };
                  detector;
                }
        with Snap.Corrupt msg -> Error ("corrupt checkpoint: " ^ msg)
    end
  end

module Fault = Ft_fault.Fault

let write_all fd s off len =
  let b = Bytes.unsafe_of_string s in
  let rec go off len =
    if len > 0 then begin
      let n =
        try Unix.write fd b off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n) (len - n)
    end
  in
  go off len

let fsync_dir path =
  (* Durability of the rename itself: without fsyncing the containing
     directory, a power cut can forget the new name and resurrect the old
     file contents.  Directory fsync is not universally supported, so
     failures are ignored — the data fsync above already bounds the loss. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let save path t =
  let tmp = path ^ ".tmp" in
  let s = to_string t in
  let len = String.length s in
  (* torn-write injection point: [Some (keep, e)] means "a crash cut this
     write after [keep] bytes" — write exactly that prefix, skip the fsync
     and the rename, and raise, leaving [path] (the previous checkpoint)
     untouched.  The chaos suite asserts exactly that. *)
  let torn = Fault.torn_len "checkpoint.write" len in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match torn with
  | Some (keep, e) ->
    write_all fd s 0 keep;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  | None ->
    (try
       write_all fd s 0 len;
       (* the rename must not be allowed to publish a name whose bytes are
          still only in the page cache: fsync before rename is what makes
          "every .ftc on disk is complete" a crash-safe invariant *)
       Unix.fsync fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    Unix.close fd;
    Sys.rename tmp path;
    fsync_dir path

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> of_string s
        | exception End_of_file -> Error "checkpoint truncated")

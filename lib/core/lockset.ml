module E = Ft_trace.Event
module IntSet = Set.Make (Int)

type loc_state =
  | Virgin
  | Exclusive of int  (** owning thread *)
  | Shared of IntSet.t
  | Shared_modified of IntSet.t
  | Reported

type t = {
  sample : Sampler.instance;
  held : IntSet.t array;      (* locks held per thread *)
  states : loc_state array;
  write_index : int array;    (* last write per location, for the report *)
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "eraser"

let create (cfg : Detector.config) =
  {
    sample = Sampler.fresh cfg.Detector.sampler;
    held = Array.make cfg.Detector.clock_size IntSet.empty;
    states = Array.make (Stdlib.max 1 cfg.Detector.nlocs) Virgin;
    write_index = Array.make (Stdlib.max 1 cfg.Detector.nlocs) (-1);
    metrics = Metrics.create ();
    races = [];
  }

let report d index t x ~is_write =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if d.write_index.(x) >= 0 then Some d.write_index.(x) else None in
  d.races <-
    Race.make ~index ~thread:t ~loc:x ~with_write:is_write ~with_read:(not is_write) ?prior ()
    :: d.races;
  d.states.(x) <- Reported

let access d index t x ~is_write =
  let locks = d.held.(t) in
  (match d.states.(x) with
  | Reported -> ()
  | Virgin -> d.states.(x) <- Exclusive t
  | Exclusive owner when owner = t -> ()
  | Exclusive _ ->
    (* second thread: C(v) is refined from "all locks" to the current
       lockset, and entering Shared-Modified with an empty set warns *)
    if is_write then
      if IntSet.is_empty locks then report d index t x ~is_write
      else d.states.(x) <- Shared_modified locks
    else d.states.(x) <- Shared locks
  | Shared candidates ->
    let candidates = IntSet.inter candidates locks in
    if is_write then
      if IntSet.is_empty candidates then report d index t x ~is_write
      else d.states.(x) <- Shared_modified candidates
    else d.states.(x) <- Shared candidates
  | Shared_modified candidates ->
    let candidates = IntSet.inter candidates locks in
    if IntSet.is_empty candidates then report d index t x ~is_write
    else d.states.(x) <- Shared_modified candidates);
  if is_write && d.states.(x) <> Reported then d.write_index.(x) <- index

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      access d index t x ~is_write:false
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      access d index t x ~is_write:true
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    d.held.(t) <- IntSet.add l d.held.(t)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    d.held.(t) <- IntSet.remove l d.held.(t)
  | E.Fork _ | E.Join _ ->
    (* Eraser has no notion of happens-before: fork/join are invisible,
       which is exactly where its false positives come from *)
    ()

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Accesses never touch the held-lock state, so sharding needs no replay. *)
let note_sampled (_ : t) (_ : int) = ()

let encode_set enc s = Snap.Enc.list enc (Snap.Enc.int enc) (IntSet.elements s)

let decode_set dec =
  let xs = Snap.Dec.list dec (fun () -> Snap.Dec.int dec) in
  List.iter (fun l -> Snap.expect (l >= 0) "negative lock in lockset") xs;
  IntSet.of_list xs

let encode_state enc = function
  | Virgin -> Snap.Enc.int enc 0
  | Exclusive t ->
    Snap.Enc.int enc 1;
    Snap.Enc.int enc t
  | Shared s ->
    Snap.Enc.int enc 2;
    encode_set enc s
  | Shared_modified s ->
    Snap.Enc.int enc 3;
    encode_set enc s
  | Reported -> Snap.Enc.int enc 4

let decode_state dec =
  match Snap.Dec.int dec with
  | 0 -> Virgin
  | 1 ->
    let t = Snap.Dec.int dec in
    Snap.expect (t >= 0) "negative owner thread";
    Exclusive t
  | 2 -> Shared (decode_set dec)
  | 3 -> Shared_modified (decode_set dec)
  | 4 -> Reported
  | n -> raise (Snap.Corrupt (Printf.sprintf "bad location state tag %d" n))

let snapshot d =
  let enc = Snap.Enc.create () in
  d.sample.Sampler.save enc;
  Array.iter (encode_set enc) d.held;
  (* per-location state in one keyed section: Virgin locations are free *)
  Snap.Enc.keyed enc ~n:(Array.length d.states)
    ~is_default:(fun x -> d.states.(x) = Virgin && d.write_index.(x) = -1)
    (fun x ->
      encode_state enc d.states.(x);
      Snap.Enc.int enc d.write_index.(x));
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  d.sample.Sampler.load dec;
  for t = 0 to Array.length d.held - 1 do
    d.held.(t) <- decode_set dec
  done;
  Snap.Dec.keyed dec ~n:(Array.length d.states) (fun x ->
      d.states.(x) <- decode_state dec;
      d.write_index.(x) <- Snap.Dec.int dec);
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }

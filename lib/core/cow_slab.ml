type 'a t = {
  copy : 'a -> 'a;
  copy_into : src:'a -> dst:'a -> unit;
  mutable items : 'a array;
  mutable refs : int array;   (* slot -> holders *)
  mutable len : int;          (* slots allocated *)
  mutable free : int array;   (* stack of slots with no holder *)
  mutable nfree : int;
}

let create ~copy ~copy_into =
  { copy; copy_into; items = [||]; refs = [||]; len = 0; free = [||]; nfree = 0 }

let add s c =
  if s.len = Array.length s.items then begin
    let cap = Stdlib.max 8 (2 * s.len) in
    let items = Array.make cap c and refs = Array.make cap 0 and free = Array.make cap 0 in
    Array.blit s.items 0 items 0 s.len;
    Array.blit s.refs 0 refs 0 s.len;
    Array.blit s.free 0 free 0 s.nfree;
    s.items <- items;
    s.refs <- refs;
    s.free <- free
  end;
  let slot = s.len in
  s.items.(slot) <- c;
  s.refs.(slot) <- 1;
  s.len <- slot + 1;
  slot

let get s slot = Array.unsafe_get s.items slot

let copy s src =
  if s.nfree = 0 then add s (s.copy s.items.(src))
  else begin
    s.nfree <- s.nfree - 1;
    let dst = s.free.(s.nfree) in
    s.copy_into ~src:s.items.(src) ~dst:s.items.(dst);
    s.refs.(dst) <- 1;
    dst
  end

let retain s slot = s.refs.(slot) <- s.refs.(slot) + 1

let release s slot =
  let r = s.refs.(slot) - 1 in
  s.refs.(slot) <- r;
  if r = 0 then begin
    s.free.(s.nfree) <- slot;
    s.nfree <- s.nfree + 1
  end

(* retain first: re-holding the same slot must not free it in between *)
let hold s holders i slot =
  retain s slot;
  let old = holders.(i) in
  if old >= 0 then release s old;
  holders.(i) <- slot

(* copy first: the source may be the holder's last reference *)
let unshare s holders i =
  let src = holders.(i) in
  let dst = copy s src in
  release s src;
  holders.(i) <- dst;
  get s dst

let free_slots s = s.nfree

let check s ~holders =
  let count = Array.make s.len 0 in
  let in_range = ref true in
  List.iter
    (Array.iter (fun slot ->
         if slot >= s.len then in_range := false
         else if slot >= 0 then count.(slot) <- count.(slot) + 1))
    holders;
  let on_stack = Array.make s.len false in
  let stack_ok = ref true in
  for k = 0 to s.nfree - 1 do
    let slot = s.free.(k) in
    if slot < 0 || slot >= s.len || on_stack.(slot) then stack_ok := false
    else on_stack.(slot) <- true
  done;
  !in_range && !stack_ok
  && s.len <= List.fold_left (fun n h -> n + Array.length h) 1 holders
  && Array.for_all Fun.id
       (Array.init s.len (fun slot ->
            count.(slot) = s.refs.(slot) && on_stack.(slot) = (count.(slot) = 0)))

(* Each lock's slot is written as a reference — to the thread holding the
   same slot, or to an earlier lock holding it — and only as an inline
   clock when it aliases neither, so restore rebuilds the exact sharing.
   Slot numbers are never written, so free slots leave no trace. *)
let tag_none = 0
let tag_thread = 1
let tag_lock = 2
let tag_inline = 3

let rec find (slots : int array) slot i stop =
  if i >= stop then -1 else if slots.(i) = slot then i else find slots slot (i + 1) stop

let encode_lock_refs enc s ~threads ~locks encode =
  Array.iteri
    (fun l slot ->
      if slot < 0 then Snap.Enc.int enc tag_none
      else begin
        let t = find threads slot 0 (Array.length threads) in
        let l' = if t >= 0 then -1 else find locks slot 0 l in
        if t >= 0 then begin
          Snap.Enc.int enc tag_thread;
          Snap.Enc.int enc t
        end
        else if l' >= 0 then begin
          Snap.Enc.int enc tag_lock;
          Snap.Enc.int enc l'
        end
        else begin
          Snap.Enc.int enc tag_inline;
          encode enc (get s slot)
        end
      end)
    locks

let decode_lock_refs dec s ~threads ~locks decode =
  for l = 0 to Array.length locks - 1 do
    locks.(l) <-
      (match Snap.Dec.int dec with
      | t when t = tag_none -> -1
      | t when t = tag_thread ->
        let tid = Snap.Dec.int dec in
        Snap.expect (tid >= 0 && tid < Array.length threads) "lock clock thread out of range";
        retain s threads.(tid);
        threads.(tid)
      | t when t = tag_lock ->
        let l' = Snap.Dec.int dec in
        Snap.expect (l' >= 0 && l' < l) "lock clock back-reference out of range";
        Snap.expect (locks.(l') >= 0) "lock clock back-reference to empty slot";
        retain s locks.(l');
        locks.(l')
      | t when t = tag_inline -> add s (decode dec)
      | t -> raise (Snap.Corrupt (Printf.sprintf "bad lock clock tag %d" t)))
  done

type perms = { read : bool; write : bool; exec : bool }

let rwx = { read = true; write = true; exec = true }
let ro = { read = true; write = false; exec = true }

type violation = {
  gpa : Addr.t;
  access : [ `Read | `Write | `Exec ];
  reason : [ `Not_mapped | `Perm_denied ];
}

(* The radix is indexed by 9-bit slices of the guest-physical address:
   level 4 = PML4 (512G per entry), 3 = PDPT (1G), 2 = PD (2M),
   1 = PT (4K).  Leaves may sit at levels 3 (1G), 2 (2M) and 1 (4K).

   A node's 512 slots are eight 64-slot parts, each allocated on its
   first write; a part never written is the shared [empty_part], which
   nothing ever writes to.  A read is two array loads, and no block a
   node allocates exceeds 65 words: OCaml allocates anything over 256
   words directly in the major heap, far dearer than the minor heap
   for tables that churn with their enclaves.  [live] counts the
   slots that are not [Empty]. *)
type node = { parts : entry array array; mutable live : int }

and entry =
  | Empty
  | Table of node
  | Leaf of { page_size : Addr.page_size; perms : perms }

let part_bits = 6
let part_slots = 1 lsl part_bits
let node_parts = 512 / part_slots
let empty_part : entry array = Array.make part_slots Empty
let new_node () = { parts = Array.make node_parts empty_part; live = 0 }
let get node idx = node.parts.(idx lsr part_bits).(idx land (part_slots - 1))

(* Store a non-[Empty] entry, allocating its part on first write. *)
let set node idx e =
  let p = idx lsr part_bits in
  if node.parts.(p) == empty_part then
    node.parts.(p) <- Array.make part_slots Empty;
  let part = node.parts.(p) in
  let i = idx land (part_slots - 1) in
  if part.(i) == Empty then node.live <- node.live + 1;
  part.(i) <- e

(* Empty a slot that holds an entry. *)
let clear node idx =
  node.parts.(idx lsr part_bits).(idx land (part_slots - 1)) <- Empty;
  node.live <- node.live - 1

(* Paging-structure walk cache: what the hardware's PDE/PDPTE caches
   buy a real walker.  Direct-mapped by the 2M-aligned window of the
   GPA; a window resolves either uniformly (a >=2M leaf, or nothing
   mapped at that level) or through its level-1 PT node, in which case
   the per-4K answers are themselves resolved lazily into a 512-slot
   array — a warm lookup is a few array reads and an int compare, no
   hashing.  The 1024 slots are 16 chunks of 64, each a window-key
   chunk (an unboxed [int array], -1 = empty) beside an entry chunk;
   a chunk is allocated on its first fill, and until then its key
   chunk is the shared all-empty [no_keys], so building a table
   allocates no slot storage at all.  The cache carries the [writes]
   counter it was filled under and self-invalidates wholesale when
   any leaf is installed or removed. *)
type walk_entry =
  | Uniform of (Addr.page_size * perms) option
  | Pt of {
      node : node;
      slots : (Addr.page_size * perms) option option array;
          (* outer option: slot not resolved yet; inner: the walk's
             answer for that 4K page, including "unmapped" *)
    }

let walk_cache_slots = 1024
let walk_chunk_bits = 6
let walk_chunk_slots = 1 lsl walk_chunk_bits
let walk_chunks = walk_cache_slots / walk_chunk_slots
let no_keys = Array.make walk_chunk_slots (-1)

type t = {
  uid : int;
  root : node;
  max_page : Addr.page_size;
  mutable index : Region.Set.t;
  mutable writes : int;
  mutable n4k : int;
  mutable n2m : int;
  mutable n1g : int;
  walk_cache : bool;
  walk_keys : int array array;  (* [||] when the cache is disabled *)
  walk_entries : walk_entry array array;
      (* [||] chunks until filled; only read behind a key match *)
  mutable walk_cache_gen : int;
  mutable walk_hits : int;
  mutable walk_misses : int;
  covers_cache : (int * int, bool) Hashtbl.t;
  mutable covers_cache_gen : int;
}

(* Atomic: EPTs are created concurrently by fleet shards, and the uid
   keys per-domain sanitizer/memo tables — a duplicated uid would
   alias two machines' state. *)
let next_uid = Atomic.make 0

let create ?(max_page = Addr.Page_1g) ?(walk_cache = true) () =
  let chunks = if walk_cache then walk_chunks else 0 in
  {
    uid = 1 + Atomic.fetch_and_add next_uid 1;
    root = new_node ();
    max_page;
    index = Region.Set.empty;
    writes = 0;
    n4k = 0;
    n2m = 0;
    n1g = 0;
    walk_cache;
    walk_keys = Array.make chunks no_keys;
    walk_entries = Array.make chunks [||];
    walk_cache_gen = 0;
    walk_hits = 0;
    walk_misses = 0;
    covers_cache = Hashtbl.create 32;
    covers_cache_gen = 0;
  }

let max_page t = t.max_page
let uid t = t.uid
let generation t = t.writes
let walk_cache_stats t = (t.walk_hits, t.walk_misses)

let level_shift = function 4 -> 39 | 3 -> 30 | 2 -> 21 | 1 -> 12 | _ -> assert false
let slice addr level = (addr lsr level_shift level) land 0x1ff

let page_size_of_level = function
  | 3 -> Addr.Page_1g
  | 2 -> Addr.Page_2m
  | 1 -> Addr.Page_4k
  | _ -> assert false

let level_of_page_size = function
  | Addr.Page_1g -> 3
  | Addr.Page_2m -> 2
  | Addr.Page_4k -> 1

let count_delta t page_size d =
  match page_size with
  | Addr.Page_4k -> t.n4k <- t.n4k + d
  | Addr.Page_2m -> t.n2m <- t.n2m + d
  | Addr.Page_1g -> t.n1g <- t.n1g + d

(* Count off every leaf under an entry that is about to be
   overwritten: a replaced leaf, or all leaves of a finer table
   dropped under a larger page. *)
let rec count_off t = function
  | Empty -> ()
  | Leaf l -> count_delta t l.page_size (-1)
  | Table n -> Array.iter (Array.iter (count_off t)) n.parts

(* Install [count] consecutive leaves of [page_size] from [addr]
   (aligned), all under one parent node: one descent from the root
   and one shared immutable leaf value.  Each slot keeps the per-leaf
   rule — whatever it held is counted off, and [writes] advances by
   one per leaf — so counts and [writes] match [count] single
   installs. *)
let install_run t addr ~page_size ~count ~perms =
  let level = level_of_page_size page_size in
  let rec descend node l =
    if l = level then node
    else
      let idx = slice addr l in
      match get node idx with
      | Table n -> descend n (l - 1)
      | Leaf _ ->
          (* A larger leaf covers this range: map_region splits and
             clears every overlap before installing, so this cannot
             happen. *)
          assert false
      | Empty ->
          let n = new_node () in
          set node idx (Table n);
          descend n (l - 1)
  in
  let parent = descend t.root 4 in
  let leaf = Leaf { page_size; perms } in
  let first = slice addr level in
  assert (first + count <= 512);
  for idx = first to first + count - 1 do
    count_off t (get parent idx);
    set parent idx leaf
  done;
  count_delta t page_size count;
  t.writes <- t.writes + count

(* Split the leaf at slot [idx] of [node] (a level-[level] leaf) into
   512 identity children one level down, preserving permissions: every
   part of the child holds the one shared leaf.  Returns the child. *)
let split_leaf t node idx level ~perms =
  let child_ps = page_size_of_level (level - 1) in
  let leaf = Leaf { page_size = child_ps; perms } in
  let child =
    {
      parts = Array.init node_parts (fun _ -> Array.make part_slots leaf);
      live = 512;
    }
  in
  count_delta t (page_size_of_level level) (-1);
  count_delta t child_ps 512;
  t.writes <- t.writes + 512;
  set node idx (Table child);
  child

let find_leaf_uncached t addr =
  let rec descend node level =
    if level = 0 then None
    else
      match get node (slice addr level) with
      | Empty -> None
      | Leaf { page_size; perms } -> Some (page_size, perms)
      | Table n -> descend n (level - 1)
  in
  descend t.root 4

let pt_lookup node addr =
  match get node (slice addr 1) with
  | Leaf { page_size; perms } -> Some (page_size, perms)
  | Table _ -> assert false (* level 0 cannot be a table *)
  | Empty -> None

(* Walk once, remembering how the 2M window resolves. *)
let fill_walk_entry t addr =
  let rec descend node level =
    match get node (slice addr level) with
    | Empty -> Uniform None
    | Leaf { page_size; perms } -> Uniform (Some (page_size, perms))
    | Table n ->
        if level = 2 then Pt { node = n; slots = Array.make 512 None }
        else descend n (level - 1)
  in
  descend t.root 4

(* Fill walk-cache slot [i] of chunk [c] for [key], allocating the
   chunk on its first fill.  Kept out of the warm region below: it is
   the miss path. *)
let fill_walk t c i key addr =
  if t.walk_keys.(c) == no_keys then begin
    t.walk_keys.(c) <- Array.make walk_chunk_slots (-1);
    t.walk_entries.(c) <- Array.make walk_chunk_slots (Uniform None)
  end;
  t.walk_entries.(c).(i) <- fill_walk_entry t addr;
  t.walk_keys.(c).(i) <- key

(* Observability cells for the walk-cache hit/miss path and for
   translation violations; interned once, guarded by one branch. *)
let m_walk_hit = lazy Covirt_obs.Metrics.(unlabeled (counter "ept.walk.hit"))
let m_walk_miss = lazy Covirt_obs.Metrics.(unlabeled (counter "ept.walk.miss"))

let m_violation =
  lazy (Covirt_obs.Metrics.counter "ept.violation" ~max_series:8)

(* Coverage tap (the replay fuzzer's guidance): walk-branch class
   codes — 0 walk-cache hit, 1 walk-cache fill, 2 uncached walk,
   3 PT-slot hit, 4 PT-slot fill, 5 violation/not-mapped,
   6 violation/perm-denied.  Same contract as the obs cells above:
   one [!cov_on] branch when disarmed, no cycles, no allocation
   (the tap body is a bitset store), so arming never perturbs the
   zero-GC warm path below. *)
let cov_on = ref false
let cov_tap : (int -> unit) ref = ref (fun _ -> ())

(* warm-begin: allocation-free walk.  A warm [find_leaf] is a chunk
   read, a key read and an int compare; the per-4K slot answers are
   the stored [(page_size * perms) option] values themselves, so
   nothing on the hit path allocates (enforced by the bench allocation
   gate and covirt-lint check 6).  The wholesale invalidation scan is
   a plain loop over the allocated chunks — a closure there would
   charge every post-write translate. *)
let find_leaf t addr =
  if not t.walk_cache then begin
    if !cov_on then !cov_tap 2;
    find_leaf_uncached t addr
  end
  else begin
    if t.walk_cache_gen <> t.writes then begin
      for c = 0 to walk_chunks - 1 do
        let keys = t.walk_keys.(c) in
        if keys != no_keys then
          for i = 0 to walk_chunk_slots - 1 do
            keys.(i) <- -1
          done
      done;
      t.walk_cache_gen <- t.writes
    end;
    let key = addr lsr 21 in
    let s = key land (walk_cache_slots - 1) in
    let c = s lsr walk_chunk_bits and i = s land (walk_chunk_slots - 1) in
    if t.walk_keys.(c).(i) = key then begin
      t.walk_hits <- t.walk_hits + 1;
      if !cov_on then !cov_tap 0;
      if !Covirt_obs.Metrics.on then
        Covirt_obs.Metrics.add (Lazy.force m_walk_hit) 1
    end
    else begin
      t.walk_misses <- t.walk_misses + 1;
      if !cov_on then !cov_tap 1;
      if !Covirt_obs.Metrics.on then
        Covirt_obs.Metrics.add (Lazy.force m_walk_miss) 1;
      fill_walk t c i key addr
    end;
    match t.walk_entries.(c).(i) with
    | Uniform r -> r
    | Pt { node; slots } -> (
        let j = slice addr 1 in
        match slots.(j) with
        | Some r ->
            if !cov_on then !cov_tap 3;
            r
        | None ->
            if !cov_on then !cov_tap 4;
            let r = pt_lookup node addr in
            (* lint: allow warm-alloc — pt-slot cold fill: the boxed
               answer is stored and handed back unwrapped on later
               hits, so the [Some] is paid once per slot, not per
               translate. *)
            slots.(j) <- Some r;
            r)
  end

let note_violation reason =
  if !cov_on then
    !cov_tap (match reason with `Not_mapped -> 5 | `Perm_denied -> 6);
  if !Covirt_obs.Metrics.on then
    let dim =
      match reason with `Not_mapped -> "not-mapped" | `Perm_denied -> "perm"
    in
    Covirt_obs.Metrics.add
      (Covirt_obs.Metrics.cell (Lazy.force m_violation)
         { Covirt_obs.Metrics.no_label with dim })
      1

(* Unboxed-result translation: non-negative [Addr.page_size_code] on
   success, [not_mapped_code]/[perm_denied_code] on failure.  The hot
   callers (Machine.translate_granular, the warm benches) branch on
   the code and build a [violation] record only on the cold exit
   path. *)
let not_mapped_code = -1
let perm_denied_code = -2

let translate_code t addr ~access =
  match find_leaf t addr with
  | None ->
      note_violation `Not_mapped;
      not_mapped_code
  | Some (page_size, perms) ->
      let ok =
        match access with
        | `Read -> perms.read
        | `Write -> perms.write
        | `Exec -> perms.exec
      in
      if ok then Addr.page_size_code page_size
      else begin
        note_violation `Perm_denied;
        perm_denied_code
      end
(* warm-end *)

let violation_of_code code addr ~access =
  {
    gpa = addr;
    access;
    reason = (if code = not_mapped_code then `Not_mapped else `Perm_denied);
  }

let translate t addr ~access =
  let code = translate_code t addr ~access in
  if code >= 0 then Ok (Addr.page_size_of_code code)
  else Error (violation_of_code code addr ~access)

let page_size_at t addr = Option.map fst (find_leaf t addr)

let aligned_4k region =
  Addr.is_aligned region.Region.base ~size:Addr.page_size_4k
  && Addr.is_aligned region.Region.len ~size:Addr.page_size_4k

(* Ensure no leaf straddles a boundary of [region]: any leaf that
   overlaps the region without being fully contained in it is split
   into children one level down, repeatedly, until every leaf is
   either fully inside or fully outside.  Needed before unmapping (or
   remapping) so removal can proceed leaf-by-leaf.  After a split the
   descent continues into the freshly created table — the old
   implementation restarted from the root after every split. *)
let split_straddling t region point =
  let rec descend node level =
    let idx = slice point level in
    match get node idx with
    | Empty -> ()
    | Leaf l ->
        if level > 1 then begin
          let bytes = Addr.bytes_of_page_size (page_size_of_level level) in
          let base = Addr.page_down point ~size:bytes in
          let contained = Region.contains_range region ~base ~len:bytes in
          if not contained then
            descend (split_leaf t node idx level ~perms:l.perms) (level - 1)
        end
    | Table n -> descend n (level - 1)
  in
  descend t.root 4

let remove_leaves t region =
  (* After boundary splitting, every leaf is either fully inside or
     fully outside [region]; clear the inside ones in place, over the
     slots of each node that overlap the region, and drop a table
     left with no live slot. *)
  let lim = Region.limit region in
  let rec scrub node level base =
    let shift = level_shift level in
    let slot_bytes = 1 lsl shift in
    let lo = max 0 ((region.Region.base - base) asr shift) in
    let hi = min 511 ((lim - 1 - base) asr shift) in
    for idx = lo to hi do
      let slot_base = base + (idx * slot_bytes) in
      match get node idx with
      | Empty -> ()
      | Leaf l ->
          if Region.contains_range region ~base:slot_base ~len:slot_bytes
          then begin
            count_delta t l.page_size (-1);
            t.writes <- t.writes + 1;
            clear node idx
          end
      | Table n ->
          scrub n (level - 1) slot_base;
          if n.live = 0 then clear node idx
    done
  in
  scrub t.root 4 0

(* Greedy aligned chunking: at each address, the largest permitted
   page that is aligned and fits.  Consecutive leaves of one size
   under one parent node (2M leaves inside a 1G window, 4K leaves
   inside a 2M window, 1G leaves inside a 512G window) go in as one
   [install_run] — the same leaves a leaf-at-a-time loop would
   produce, with one descent per run instead of one per leaf. *)
let install_range t region ~perms =
  let cap = Addr.bytes_of_page_size t.max_page in
  let lim = Region.limit region in
  let fits addr size =
    cap >= size && Addr.is_aligned addr ~size && lim - addr >= size
  in
  let rec go addr =
    if addr < lim then begin
      let page_size =
        if fits addr Addr.page_size_1g then Addr.Page_1g
        else if fits addr Addr.page_size_2m then Addr.Page_2m
        else Addr.Page_4k
      in
      let bytes = Addr.bytes_of_page_size page_size in
      let span = 512 * bytes in
      let parent_end = Addr.page_down addr ~size:span + span in
      let count = (min lim parent_end - addr) / bytes in
      install_run t addr ~page_size ~count ~perms;
      go (addr + (count * bytes))
    end
  in
  go region.Region.base

let map_region t ?(perms = rwx) region =
  if not (aligned_4k region) then invalid_arg "Ept.map_region: unaligned";
  (* Remapping over existing mappings: clear first so leaf installs
     never collide with finer tables. *)
  let covered = Region.Set.inter t.index (Region.Set.of_list [ region ]) in
  Region.Set.iter
    (fun r ->
      split_straddling t r r.Region.base;
      split_straddling t r (Region.limit r - Addr.page_size_4k);
      remove_leaves t r)
    covered;
  install_range t region ~perms;
  t.index <- Region.Set.add t.index region;
  if !Sanitize.on then
    Sanitize.ept_write ~ept_uid:t.uid ~base:region.Region.base
      ~len:region.Region.len ~present:true

let unmap_region t region =
  if not (aligned_4k region) then invalid_arg "Ept.unmap_region: unaligned";
  let present = Region.Set.inter t.index (Region.Set.of_list [ region ]) in
  Region.Set.iter
    (fun r ->
      split_straddling t r r.Region.base;
      split_straddling t r (Region.limit r - Addr.page_size_4k);
      remove_leaves t r)
    present;
  t.index <- Region.Set.remove t.index region;
  if !Sanitize.on then
    Sanitize.ept_write ~ept_uid:t.uid ~base:region.Region.base
      ~len:region.Region.len ~present:false

let covers t ~base ~len =
  (* Memoized per (base, len): workloads re-check the same buffer on
     every pass.  Any mapping change bumps [writes], which empties the
     memo on the next query. *)
  if t.covers_cache_gen <> t.writes then begin
    Hashtbl.reset t.covers_cache;
    t.covers_cache_gen <- t.writes
  end;
  match Hashtbl.find_opt t.covers_cache (base, len) with
  | Some answer -> answer
  | None ->
      let answer = Region.Set.mem_range t.index ~base ~len in
      Hashtbl.replace t.covers_cache (base, len) answer;
      answer

(* Offline descent over every live leaf in ascending GPA order — the
   static verifier's raw material.  Slots are scanned in index order,
   which is GPA order, so nothing is sorted.  Walks the radix
   structure itself (not the index) so a verifier cross-checks what
   the hardware would actually translate. *)
let fold_leaves t ~init ~f =
  let rec go node level base acc =
    let slot_bytes = 1 lsl level_shift level in
    let acc = ref acc in
    for p = 0 to node_parts - 1 do
      let part = node.parts.(p) in
      if part != empty_part then
        for i = 0 to part_slots - 1 do
          let slot_base = base + (((p * part_slots) + i) * slot_bytes) in
          match part.(i) with
          | Empty -> ()
          | Leaf { page_size; perms } ->
              acc := f !acc ~base:slot_base ~page_size ~perms
          | Table child -> acc := go child (level - 1) slot_base !acc
        done
    done;
    !acc
  in
  go t.root 4 0 init

let regions t = t.index
let leaf_counts t = (t.n4k, t.n2m, t.n1g)
let entry_writes t = t.writes

let walk_levels = function
  | Addr.Page_1g -> 2
  | Addr.Page_2m -> 3
  | Addr.Page_4k -> 4

let pp ppf t =
  let n4k, n2m, n1g = leaf_counts t in
  Format.fprintf ppf "EPT{%a; leaves 4K=%d 2M=%d 1G=%d}" Region.Set.pp t.index
    n4k n2m n1g

module Imap = Map.Make (Int)

(* [stamp] orders [snapshot]: whatever was assigned or reshaped last
   carries the highest stamp. *)
type assignment = { region : Region.t; owner : Owner.t; stamp : int }

type t = {
  uid : int;
  topology : Numa.t;
  mutable assignments : assignment Imap.t;  (* disjoint, keyed by base *)
  by_owner : (Owner.t, Region.t Imap.t) Hashtbl.t;
      (* the same assignments grouped by owner, keyed by base; an owner
         holding nothing has no entry, so churn leaves no keys behind *)
  mutable free : int Imap.t;
      (* free extents, base -> limit: disjoint and coalesced (no two
         touch), exactly the normal form of a [Region.Set] *)
  mutable stamp : int;
  mutable next_mmio : Addr.t;
  mmio_base : Addr.t;
  devices : (string, Region.t) Hashtbl.t;
}

(* Atomic: machines are created concurrently by fleet shards, and the
   uid gates the per-domain shadow-sanitizer hooks. *)
let uid_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Keyed helpers.                                                      *)

(* The binding with the greatest key strictly below [k]. *)
let below k m = Imap.find_last_opt (fun b -> b < k) m

(* The binding with the greatest key at or below [k]. *)
let at_or_below k m = Imap.find_last_opt (fun b -> b <= k) m

(* The binding with the least key at or above [k]. *)
let from k m = Imap.find_first_opt (fun b -> b >= k) m

let add_assignment t region owner =
  t.stamp <- t.stamp + 1;
  let base = region.Region.base in
  t.assignments <-
    Imap.add base { region; owner; stamp = t.stamp } t.assignments;
  let mine =
    Option.value ~default:Imap.empty (Hashtbl.find_opt t.by_owner owner)
  in
  Hashtbl.replace t.by_owner owner (Imap.add base region mine)

let drop_assignment t a =
  let base = a.region.Region.base in
  t.assignments <- Imap.remove base t.assignments;
  match Hashtbl.find_opt t.by_owner a.owner with
  | None -> ()
  | Some mine ->
      let mine = Imap.remove base mine in
      if Imap.is_empty mine then Hashtbl.remove t.by_owner a.owner
      else Hashtbl.replace t.by_owner a.owner mine

(* Assignments overlapping [region], newest first. *)
let overlapping t region =
  let limit = Region.limit region in
  let left =
    match below region.Region.base t.assignments with
    | Some (_, a) when Region.limit a.region > region.Region.base -> [ a ]
    | _ -> []
  in
  Imap.to_seq_from region.Region.base t.assignments
  |> Seq.take_while (fun (base, _) -> base < limit)
  |> Seq.fold_left (fun acc (_, a) -> a :: acc) left
  |> List.sort (fun (a : assignment) b -> Int.compare b.stamp a.stamp)

(* Cut [region] out of every assignment it overlaps.  The survivors of
   each cut assignment (its parts left and right of [region]) are
   re-stamped as new, in the order a newest-first scan of the cut
   assignments meets them. *)
let cut_assignments t region =
  let cut = overlapping t region in
  List.iter (drop_assignment t) cut;
  let limit = Region.limit region in
  let remnants =
    List.concat_map
      (fun a ->
        let left =
          if a.region.Region.base < region.Region.base then
            [ (Region.make ~base:a.region.Region.base
                 ~len:(region.Region.base - a.region.Region.base), a.owner) ]
          else []
        in
        let right =
          if Region.limit a.region > limit then
            [ (Region.make ~base:limit ~len:(Region.limit a.region - limit),
               a.owner) ]
          else []
        in
        left @ right)
      cut
  in
  List.iter (fun (r, owner) -> add_assignment t r owner) (List.rev remnants)

let free_add free region =
  let base = region.Region.base and limit = Region.limit region in
  let lo, hi, free =
    match at_or_below base free with
    | Some (b, l) when l >= base -> (b, max l limit, Imap.remove b free)
    | _ -> (base, limit, free)
  in
  let rec absorb hi free =
    match from base free with
    | Some (b, l) when b <= hi -> absorb (max hi l) (Imap.remove b free)
    | _ -> Imap.add lo hi free
  in
  absorb hi free

let free_remove free region =
  let base = region.Region.base and limit = Region.limit region in
  let free =
    match below base free with
    | Some (b, l) when l > base ->
        let free = Imap.add b base free in
        if l > limit then Imap.add limit l free else free
    | _ -> free
  in
  let rec cut free =
    match from base free with
    | Some (b, l) when b < limit ->
        let free = Imap.remove b free in
        cut (if l > limit then Imap.add limit l free else free)
    | _ -> free
  in
  cut free

let free_covers free region =
  match at_or_below region.Region.base free with
  | Some (_, l) -> Region.limit region <= l
  | None -> false

(* Free extents clipped to [zone]'s range, as [(base, limit)] pairs in
   address order. *)
let free_in_zone t ~zone =
  let zr = Numa.zone_range t.topology zone in
  let zlimit = Region.limit zr in
  let start =
    match at_or_below zr.Region.base t.free with
    | Some (b, _) -> b
    | None -> zr.Region.base
  in
  Imap.to_seq_from start t.free
  |> Seq.take_while (fun (b, _) -> b < zlimit)
  |> Seq.filter_map (fun (b, l) ->
         let b = max b zr.Region.base and l = min l zlimit in
         if l > b then Some (b, l) else None)

(* ------------------------------------------------------------------ *)

let create ~topology ~host_reserved_per_zone =
  let uid = 1 + Atomic.fetch_and_add uid_counter 1 in
  let total = Numa.total_mem topology in
  let t =
    {
      uid;
      topology;
      assignments = Imap.empty;
      by_owner = Hashtbl.create 16;
      free = Imap.singleton 0 total;
      stamp = 0;
      next_mmio = total;
      mmio_base = total;
      devices = Hashtbl.create 4;
    }
  in
  for z = 0 to Numa.zones topology - 1 do
    let zr = Numa.zone_range topology z in
    let host = Region.make ~base:zr.Region.base ~len:host_reserved_per_zone in
    t.free <- free_remove t.free host;
    add_assignment t host Owner.Host
  done;
  t

let topology t = t.topology
let uid t = t.uid

let snapshot t =
  Imap.fold (fun _ a acc -> a :: acc) t.assignments []
  |> List.sort (fun (a : assignment) b -> Int.compare b.stamp a.stamp)
  |> List.map (fun a -> (a.region, a.owner))

(* Mirror an ownership change into the shadow sanitizer; one branch,
   nothing else, when the mode is off. *)
let sanitize_event t region owner =
  if !Sanitize.on then Sanitize.phys_event ~mem_uid:t.uid region owner

let align = Addr.page_size_2m

let alloc t ~owner ~zone ~len =
  if len <= 0 then invalid_arg "Phys_mem.alloc";
  let len = Addr.page_up len ~size:Addr.page_size_4k in
  let candidate =
    Seq.find_map
      (fun (base, limit) ->
        let base = Addr.page_up base ~size:align in
        if base + len <= limit then Some (Region.make ~base ~len) else None)
      (free_in_zone t ~zone)
  in
  match candidate with
  | None ->
      Error
        (Format.asprintf "no contiguous %a block free in zone %d"
           Covirt_sim.Units.pp_bytes len zone)
  | Some region ->
      t.free <- free_remove t.free region;
      add_assignment t region owner;
      sanitize_event t region owner;
      Ok region

let assign t ~owner region =
  if free_covers t.free region then begin
    t.free <- free_remove t.free region;
    add_assignment t region owner;
    sanitize_event t region owner;
    Ok ()
  end
  else Error "Phys_mem.assign: region not entirely free"

let release t region =
  (* Partial releases shrink the assignment. *)
  cut_assignments t region;
  t.free <- free_add t.free region;
  sanitize_event t region Owner.Free

let owner_at t addr =
  match at_or_below addr t.assignments with
  | Some (_, a) when Region.contains a.region addr -> a.owner
  | _ -> if addr >= t.mmio_base then Owner.Device "unmapped-mmio" else Owner.Free

let owned_by t owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> Region.Set.empty
  | Some mine -> Region.Set.of_list (Imap.fold (fun _ r acc -> r :: acc) mine [])

(* Walk the assignments from the one holding the first byte, through
   each that starts where the previous ended, until the range is
   covered. *)
let owns_range t ~owner region =
  let limit = Region.limit region in
  let rec covered (a : assignment) =
    Owner.equal a.owner owner
    && (Region.limit a.region >= limit
       ||
       match Imap.find_opt (Region.limit a.region) t.assignments with
       | Some next -> covered next
       | None -> false)
  in
  match at_or_below region.Region.base t.assignments with
  | Some (_, a) -> Region.contains a.region region.Region.base && covered a
  | None -> false

let free_bytes t ~zone =
  Seq.fold_left (fun acc (b, l) -> acc + l - b) 0 (free_in_zone t ~zone)

let add_device t ~name ~len =
  if Hashtbl.mem t.devices name then invalid_arg "Phys_mem.add_device: duplicate";
  let len = Addr.page_up len ~size:Addr.page_size_4k in
  let region = Region.make ~base:t.next_mmio ~len in
  t.next_mmio <- t.next_mmio + len;
  add_assignment t region (Owner.Device name);
  Hashtbl.replace t.devices name region;
  sanitize_event t region (Owner.Device name);
  region

let find_device t ~name = Hashtbl.find_opt t.devices name

let chown t region owner =
  cut_assignments t region;
  t.free <- free_remove t.free region;
  add_assignment t region owner;
  sanitize_event t region owner

let mmio_base t = t.mmio_base

let pp ppf t =
  Imap.iter
    (fun _ a ->
      Format.fprintf ppf "%a %a@." Region.pp a.region Owner.pp a.owner)
    t.assignments;
  Format.fprintf ppf "free: %a" Covirt_sim.Units.pp_bytes
    (Imap.fold (fun b l acc -> acc + l - b) t.free 0)

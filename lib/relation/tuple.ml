type t = Value.t array

let make values = Array.of_list values
let of_array a = a
let to_list (t : t) = Array.to_list t
let arity (t : t) = Array.length t

let get (t : t) i = t.(i)

let get_by_name schema (t : t) name = t.(Schema.index_of_exn schema name)

let project schema (t : t) attrs =
  Array.of_list (List.map (get_by_name schema t) attrs)

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let equal_on schema attrs a b =
  List.for_all
    (fun attr ->
      let i = Schema.index_of_exn schema attr in
      Value.equal a.(i) b.(i))
    attrs

let compare (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Value.pp) (Array.to_list t)

(* Mix the per-field hashes directly — no intermediate string (or any other)
   allocation per field. The multiplier spreads positional information so
   permuted tuples hash apart. *)
let hash (t : t) =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 0x01000193) lxor Value.hash (Array.unsafe_get t i)
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module E = Ccs_sdf.Error
module Binio = Ccs_sdf.Binio
module Graph = Ccs_sdf.Graph
module Cache = Ccs_cache.Cache

type t = {
  graph_digest : string;
  cache_config : Cache.config;
  capacities : int array;
  planner_version : int;
}

let graph_digest g = Digest.to_hex (Digest.string (Ccs_sdf.Serial.to_text g))

let make ?(capacities = [||]) ?(planner_version = 0) ~graph_digest
    ~cache_config () =
  { graph_digest; cache_config; capacities; planner_version }

let of_graph ?capacities ?planner_version g ~cache =
  make ?capacities ?planner_version ~graph_digest:(graph_digest g)
    ~cache_config:cache ()

(* --- rendering ------------------------------------------------------------ *)

let pp_policy = function
  | Cache.Lru -> "lru"
  | Cache.Set_associative ways -> Printf.sprintf "set-associative/%d" ways
  | Cache.Direct_mapped -> "direct-mapped"

let pp_cache_config c =
  Printf.sprintf "%dw/%db/%s" c.Cache.size_words c.Cache.block_words
    (pp_policy c.Cache.policy)

let pp_capacities caps =
  if Array.length caps = 0 then "planner-chosen"
  else String.concat "," (Array.to_list (Array.map string_of_int caps))



(* --- wire form ------------------------------------------------------------ *)

let policy_tag = function
  | Cache.Lru -> (0, 0)
  | Cache.Set_associative ways -> (1, ways)
  | Cache.Direct_mapped -> (2, 0)

let policy_of_tag ~path tag ways =
  match tag with
  | 0 -> Cache.Lru
  | 1 -> Cache.Set_associative ways
  | 2 -> Cache.Direct_mapped
  | _ ->
      E.fail
        (E.Checkpoint_corrupt
           { path; reason = Printf.sprintf "unknown cache policy tag %d" tag })

let encode w t =
  Binio.W.string w t.graph_digest;
  Binio.W.int w t.cache_config.Cache.size_words;
  Binio.W.int w t.cache_config.Cache.block_words;
  let tag, ways = policy_tag t.cache_config.Cache.policy in
  Binio.W.int w tag;
  Binio.W.int w ways;
  Binio.W.int_array w t.capacities;
  Binio.W.int w t.planner_version

let decode ~path r =
  let graph_digest = Binio.R.string r in
  let size_words = Binio.R.int r in
  let block_words = Binio.R.int r in
  let tag = Binio.R.int r in
  let ways = Binio.R.int r in
  let policy = policy_of_tag ~path tag ways in
  let cache_config =
    try Cache.config ~policy ~size_words ~block_words ()
    with Invalid_argument msg ->
      E.fail (E.Checkpoint_corrupt { path; reason = msg })
  in
  let capacities = Binio.R.int_array r in
  let planner_version = Binio.R.int r in
  { graph_digest; cache_config; capacities; planner_version }

let digest t =
  let w = Binio.W.create () in
  encode w t;
  Digest.to_hex (Digest.string (Binio.W.contents w))

(* --- mismatch discipline -------------------------------------------------- *)

let check ~path ~expected ~found =
  let mismatch field exp fnd =
    Error (E.Checkpoint_mismatch { path; field; expected = exp; found = fnd })
  in
  if expected.graph_digest <> found.graph_digest then
    mismatch "graph" expected.graph_digest found.graph_digest
  else if expected.cache_config <> found.cache_config then
    mismatch "cache"
      (pp_cache_config expected.cache_config)
      (pp_cache_config found.cache_config)
  else if expected.capacities <> found.capacities then
    mismatch "capacities"
      (pp_capacities expected.capacities)
      (pp_capacities found.capacities)
  else if expected.planner_version <> found.planner_version then
    mismatch "planner version"
      (string_of_int expected.planner_version)
      (string_of_int found.planner_version)
  else Ok ()


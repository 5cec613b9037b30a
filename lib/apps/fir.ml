module B = Ccs_sdf.Graph.Builder

let fir_state ~taps = 2 * taps

let add_fir b ~name ~taps = B.add_module b ~state:(fir_state ~taps) name

let unit_edge b src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ())

let edge b ~src ~dst ~push ~pop =
  ignore (B.add_channel b ~src ~dst ~push ~pop ())

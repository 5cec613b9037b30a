(* Unwrap a result a test expects to be [Ok], failing the test with the
   structured error otherwise. *)
let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Ccs.Error.to_string e)

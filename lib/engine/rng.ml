type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = create ~seed:(bits64 t)

let float t =
  (* 53 high bits to a double in [0,1) *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  x mod bound

let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let normal t ~mean ~stddev =
  let u1 = Float.max epsilon_float (float t) in
  let u2 = float t in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)

// Corpus for the seededrand analyzer over math/rand/v2: the global draws
// are just as unseeded as v1's, while the PCG/ChaCha8 constructors build
// explicit streams and must stay clean.
package corpus

import randv2 "math/rand/v2"

func globalStateV2() int {
	x := randv2.IntN(10)  // want
	f := randv2.Float64() // want
	return x + int(f)
}

// saltedSubstream is the faults-package idiom: one seed, per-concern salts,
// every draw traceable to (seed, salt).
func saltedSubstream(seed uint64, salt uint64) float64 {
	rng := randv2.New(randv2.NewPCG(seed, salt))
	return rng.Float64()
}

func chachaStream(key [32]byte) uint64 {
	return randv2.New(randv2.NewChaCha8(key)).Uint64()
}

// Package bfv implements the Brakerski-Fan-Vercauteren somewhat-homomorphic
// encryption scheme over R_q = Z_q[X]/(X^n+1), as used by CIPHERMATCH
// (§2.1): key generation, encryption, decryption, homomorphic addition (the
// only operation CIPHERMATCH needs), and homomorphic multiplication with
// relinearisation (needed by the arithmetic baseline of Yasuda et al. [27]
// and the Boolean baseline).
//
// The default parameter set is the paper's: n = 1024, log2 q = 32,
// log2 t = 16. Note (§9 of DESIGN.md) that this is the paper's
// performance-evaluation configuration; by the homomorphic encryption
// security standard, n = 1024 at 128-bit classical security supports
// roughly 27-bit q, so production deployments should use ParamsN2048.
//
// Determinism contract: Encrypt consumes randomness from its rng.Source in
// a fixed documented order (u, e0, e1). The CIPHERMATCH seeded-match-token
// mode (internal/core) relies on this to re-derive the public randomness
// part of a ciphertext from a forked seed.
package bfv

import (
	"fmt"
	"math/bits"

	"ciphermatch/internal/ring"
)

// Params describes a BFV parameter set.
type Params struct {
	// N is the ring degree (polynomial modulus degree), a power of two.
	N int
	// Q is the ciphertext coefficient modulus.
	Q uint64
	// T is the plaintext coefficient modulus (T >= 2, T <= Q).
	T uint64
	// Eta is the centered-binomial parameter of the error distribution.
	Eta int
	// RelinBaseBits is the digit width w of the base-2^w decomposition
	// used by relinearisation keys.
	RelinBaseBits uint
}

// ParamsPaper is the configuration used throughout the paper's evaluation
// (§4.2): n = 1024, 32-bit ciphertext coefficients, 16-bit plaintext
// coefficients.
func ParamsPaper() Params {
	return Params{N: 1024, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
}

// ParamsToy is a small configuration for fast unit tests. It is NOT secure;
// it exists so that the whole pipeline can be exercised quickly.
func ParamsToy() Params {
	return Params{N: 64, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
}

// ParamsN2048 is a larger configuration with conservative security margins
// (n = 2048, 54-bit q), for users who want the paper's algorithm at a
// standard-compliant parameter point.
func ParamsN2048() Params {
	return Params{N: 2048, Q: 1 << 54, T: 1 << 16, Eta: 3, RelinBaseBits: 9}
}

// ParamsOddQ is a test-only configuration with a non-power-of-two modulus,
// used to keep the implementation honest about modulus assumptions.
func ParamsOddQ() Params {
	return Params{N: 64, Q: (1 << 40) + 15, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
}

// ParamsArithBaseline is the configuration used for the multiplication-based
// arithmetic baseline (Yasuda et al. [27]): homomorphic multiplication
// inflates noise by roughly n·t·|v|, so it needs a wider ciphertext modulus
// than the addition-only CIPHERMATCH point. The paper's q=2^32/t=2^16
// configuration has budget only for additions — which is precisely Key
// Takeaway 1. Hamming distances fit in t = 2^10.
func ParamsArithBaseline() Params {
	return Params{N: 1024, Q: 1 << 44, T: 1 << 10, Eta: 3, RelinBaseBits: 8}
}

// ParamsToyMul is a small configuration with multiplication budget, for
// fast unit tests of Mul/Relinearize.
func ParamsToyMul() Params {
	return Params{N: 64, Q: 1 << 40, T: 1 << 8, Eta: 3, RelinBaseBits: 8}
}

// ParamsNTTArith returns an NTT-enabled configuration for the arithmetic
// baseline: a 45-bit prime modulus with q ≡ 1 (mod 2n), so ring
// multiplications run through the number-theoretic transform — the same
// algorithmic regime as SEAL, the paper's software substrate. t = 2^10
// leaves multiplication noise budget for Hamming-distance search.
func ParamsNTTArith() Params {
	q, err := ring.FindNTTPrime(45, 1024)
	if err != nil {
		panic(err) // static parameters; cannot fail at these sizes
	}
	return Params{N: 1024, Q: q, T: 1 << 10, Eta: 3, RelinBaseBits: 8}
}

// ParamsNTTToy is the small NTT-enabled test configuration.
func ParamsNTTToy() Params {
	q, err := ring.FindNTTPrime(45, 64)
	if err != nil {
		panic(err)
	}
	return Params{N: 64, Q: q, T: 1 << 10, Eta: 3, RelinBaseBits: 8}
}

// ParamsBoolean is the configuration for the functional Boolean baseline:
// one bit per ciphertext (t = 2), with enough modulus headroom for an
// XNOR/AND match tree of depth ~4 (16-bit queries). The analytic Boolean
// cost model in internal/perfmodel uses TFHE constants instead; this
// parameter set only serves the functional demonstration (see DESIGN.md).
func ParamsBoolean() Params {
	return Params{N: 128, Q: 1 << 60, T: 2, Eta: 3, RelinBaseBits: 15}
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.T < 2 {
		return fmt.Errorf("bfv: plaintext modulus T=%d must be at least 2", p.T)
	}
	if p.T > p.Q/2 {
		return fmt.Errorf("bfv: plaintext modulus T=%d too large for Q=%d", p.T, p.Q)
	}
	if p.Eta < 1 || p.Eta > 16 {
		return fmt.Errorf("bfv: eta=%d out of range [1,16]", p.Eta)
	}
	if p.RelinBaseBits < 1 || p.RelinBaseBits > 32 {
		return fmt.Errorf("bfv: relin base bits=%d out of range [1,32]", p.RelinBaseBits)
	}
	_, err := ring.New(p.N, p.Q)
	return err
}

// Delta returns the plaintext scaling factor floor(Q/T).
func (p Params) Delta() uint64 { return p.Q / p.T }

// QBytes returns the number of bytes used to store one ciphertext
// coefficient (the paper's footprint accounting uses exactly ceil(log2 q / 8)).
// ceil(log2 q) is bits.Len64(q-1) for every valid modulus (q >= 2); it is
// computed directly rather than through a ring.Ring, because the wire
// codec asks for it on every encode and decode.
func (p Params) QBytes() int {
	return (bits.Len64(p.Q-1) + 7) / 8
}

// TBytes returns the number of bytes per plaintext coefficient.
func (p Params) TBytes() int {
	bits := 0
	for v := p.T - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return (bits + 7) / 8
}

// PackedBitsPerCoeff returns how many database bits the CIPHERMATCH packing
// scheme stores in one plaintext coefficient (log2 T for power-of-two T).
func (p Params) PackedBitsPerCoeff() int {
	bits := 0
	for v := p.T; v > 1; v >>= 1 {
		bits++
	}
	return bits
}

// Ring constructs the ring for these parameters.
func (p Params) Ring() *ring.Ring { return ring.MustNew(p.N, p.Q) }

// CiphertextBytes returns the serialised size of a fresh (2-component)
// ciphertext, the unit of the paper's memory-footprint analysis.
func (p Params) CiphertextBytes() int { return 2 * p.N * p.QBytes() }

// PlaintextBytes returns the size of the data packed into one plaintext
// polynomial under CIPHERMATCH packing (n coefficients × log2(t) bits).
func (p Params) PlaintextBytes() int { return p.N * p.PackedBitsPerCoeff() / 8 }

// ExpansionFactor returns the ciphertext/plaintext size ratio under
// CIPHERMATCH packing; 4× for the paper parameters (§4.2.1 Key Insight).
func (p Params) ExpansionFactor() float64 {
	return float64(p.CiphertextBytes()) / float64(p.PlaintextBytes())
}

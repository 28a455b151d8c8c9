package pki

// Key-material serialization for out-of-process deployments: a launcher
// runs Setup once, encodes each party's Keyring (private scalars + the full
// public board) into its daemon config file, and every noded process
// decodes its own. Encoding is hex-in-JSON — small (a few KB per party),
// diffable, and safe to pass through config files.
//
// Decoding rebuilds FRESH verification caches: the in-process cluster
// shares one vcache/scache across all parties, but separate processes each
// hold their own (they only ever verify on behalf of one party), which
// changes cache hit counters, never verdicts.

import (
	"encoding/hex"
	"fmt"

	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/scache"
	"repro/internal/crypto/sig"
	"repro/internal/crypto/vcache"
	"repro/internal/crypto/vrf"
)

// PartyConfig is one bulletin-board slot in serialized form.
type PartyConfig struct {
	Sig     string `json:"sig"`     // Schnorr verification key (P-256 point)
	VRF     string `json:"vrf"`     // VRF verification key (P-256 point)
	PVSSEnc string `json:"pvssEnc"` // PVSS encryption key (G2)
	PVSSVK  string `json:"pvssVk"`  // PVSS tag verification key (G1)
}

// KeyringConfig is one party's complete key material in serialized form:
// its four private scalars plus the whole public board.
type KeyringConfig struct {
	Self    int           `json:"self"`
	Sig     string        `json:"sig"`     // Schnorr signing scalar
	VRF     string        `json:"vrf"`     // VRF evaluation scalar
	PVSSDec string        `json:"pvssDec"` // PVSS decryption scalar
	PVSSSig string        `json:"pvssSig"` // PVSS tag-signing scalar
	Board   []PartyConfig `json:"board"`
}

// Config serializes the keyring for a daemon config file.
func (k *Keyring) Config() *KeyringConfig {
	c := &KeyringConfig{
		Self:    k.Self,
		Sig:     hex.EncodeToString(k.Sig.S.Bytes()),
		VRF:     hex.EncodeToString(k.VRF.S.Bytes()),
		PVSSDec: hex.EncodeToString(k.PVSSDec.D.Bytes()),
		PVSSSig: hex.EncodeToString(k.PVSSSig.S.Bytes()),
	}
	for _, p := range k.Board.Parties {
		c.Board = append(c.Board, PartyConfig{
			Sig:     hex.EncodeToString(p.Sig.P.Bytes()),
			VRF:     hex.EncodeToString(p.VRF.P.Bytes()),
			PVSSEnc: hex.EncodeToString(p.PVSSEnc.E.Bytes()),
			PVSSVK:  hex.EncodeToString(p.PVSSVK.Bytes()),
		})
	}
	return c
}

func decodeScalar(name, s string) (field.Scalar, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return field.Scalar{}, fmt.Errorf("pki: %s: %w", name, err)
	}
	v, err := field.SetCanonical(b)
	if err != nil {
		return field.Scalar{}, fmt.Errorf("pki: %s: %w", name, err)
	}
	return v, nil
}

func decodePoint(name, s string) (group.Point, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return group.Point{}, fmt.Errorf("pki: %s: %w", name, err)
	}
	p, err := group.FromBytes(b)
	if err != nil {
		return group.Point{}, fmt.Errorf("pki: %s: %w", name, err)
	}
	return p, nil
}

// Keyring deserializes the config back into a usable keyring with fresh
// per-process verification caches. The decoded public board is validated
// element-wise (on-curve / in-group checks in the decoders), and this
// party's private scalars must match its own board slot — a config whose
// identity was swapped or whose board was tampered with is rejected.
func (c *KeyringConfig) Keyring() (*Keyring, error) {
	n := len(c.Board)
	if c.Self < 0 || c.Self >= n {
		return nil, fmt.Errorf("pki: config self=%d with %d board slots", c.Self, n)
	}
	board := &Board{Parties: make([]Party, n)}
	for i, pc := range c.Board {
		sp, err := decodePoint(fmt.Sprintf("board[%d].sig", i), pc.Sig)
		if err != nil {
			return nil, err
		}
		vp, err := decodePoint(fmt.Sprintf("board[%d].vrf", i), pc.VRF)
		if err != nil {
			return nil, err
		}
		eb, err := hex.DecodeString(pc.PVSSEnc)
		if err != nil {
			return nil, fmt.Errorf("pki: board[%d].pvssEnc: %w", i, err)
		}
		e, err := pairing.G2FromBytes(eb)
		if err != nil {
			return nil, fmt.Errorf("pki: board[%d].pvssEnc: %w", i, err)
		}
		vkb, err := hex.DecodeString(pc.PVSSVK)
		if err != nil {
			return nil, fmt.Errorf("pki: board[%d].pvssVk: %w", i, err)
		}
		vk, err := pairing.G1FromBytes(vkb)
		if err != nil {
			return nil, fmt.Errorf("pki: board[%d].pvssVk: %w", i, err)
		}
		board.Parties[i] = Party{
			Sig:     sig.PublicKey{P: sp},
			VRF:     vrf.PublicKey{P: vp},
			PVSSEnc: pvss.EncKey{E: e},
			PVSSVK:  vk,
		}
	}
	sigS, err := decodeScalar("sig scalar", c.Sig)
	if err != nil {
		return nil, err
	}
	vrfS, err := decodeScalar("vrf scalar", c.VRF)
	if err != nil {
		return nil, err
	}
	decS, err := decodeScalar("pvssDec scalar", c.PVSSDec)
	if err != nil {
		return nil, err
	}
	tagS, err := decodeScalar("pvssSig scalar", c.PVSSSig)
	if err != nil {
		return nil, err
	}
	k := &Keyring{
		Self:    c.Self,
		Sig:     sig.PrivateKey{S: sigS, PK: sig.PublicKey{P: group.BaseMul(sigS)}},
		VRF:     vrf.PrivateKey{S: vrfS, PK: vrf.PublicKey{P: group.BaseMul(vrfS)}},
		PVSSDec: pvss.DecKey{D: decS},
		PVSSSig: pvss.SigKey{S: tagS, VK: pairing.G1Generator().Exp(tagS)},
		Board:   board,

		Verifier: vcache.New(),
		Scripts:  scache.New(),
		book:     newBook(),
	}
	self := board.Parties[c.Self]
	if !k.Sig.PK.P.Equal(self.Sig.P) || !k.VRF.PK.P.Equal(self.VRF.P) ||
		!k.PVSSSig.VK.Equal(self.PVSSVK) ||
		!pairing.G2Generator().Exp(decS).Equal(self.PVSSEnc.E) {
		return nil, fmt.Errorf("pki: private keys do not match board slot %d", c.Self)
	}
	return k, nil
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"hdfe/internal/dataset"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/synth"
)

// encodeDigests pins the paper-scale encode path (D = 10,000, seed 42) to
// exact bits. Each case hashes, with SHA-256, the serialized deployment,
// every encoded training record (Transform output, packed words) and the
// Float64bits of every ScoreBatch score over the training rows.
//
// The constants were generated at commit 9d7d45f, whose encoder flipped
// level codewords one bit at a time from the seed and bundled with one
// int32 counter per bit, by running this test and copying the digests it
// reports. They must not change unless the model itself is meant to.
var encodeDigests = map[string][3]string{
	"pima-m/majority/tie1":   {"6b3928c0efaa9c55d905f6101348c821e4162400a6aa90c67196212317765a0c", "3a6070bfe59c32b67668c225a2ebaab37a3a06eee0f19cfd74fc80a875aa8135", "63704909561601f9bb62ea5f9a3705f2c7107493ad37ef2b757078564bf2de21"},
	"pima-m/majority/tie0":   {"5e57e557f38f50ee75a218502956e214b287bb77e40d20c0a3704e2b191cf691", "6dcef67294a6580d523c88a196eb41cc1b0dee101c3997cb243fbc0c8eba0960", "93b5b7ae50be3c8c524d148c24be6f2ff35674d2d614308c72843bace2639676"},
	"pima-m/bindbundle/tie1": {"e2334a10b8723c5264565855538a862a1781eaa6b93eb63d49f1cf36d4709719", "6ed527520329fdac80ecca5119c5ccdd5156a5034c385e2ef65db591c1350494", "f025f42ac2e65a5c5f35d127df3650cee2499fb7147326015d04819b79073fe1"},
	"pima-m/bindbundle/tie0": {"f233b37a9000deba439550d2bf4efaa1f5fd690730698867e5349bcd166e262c", "65c03520719ba1bdc778ce9933f583d3b21f1e53ff7e88142a10c056127e428b", "5b5b8856e093f1c5ae55d5295b4773cca854eca060748a3d57b5772e9a59d32b"},
	"sylhet/majority/tie1":   {"879903ee3f3c5a388b29a15f8f3efb43983def0cb37b6ec99a19a5e982acf939", "8c235fb5607bd278b16e39b560ab5c84ef6715082b04ce6c87707188fdc377c7", "d307dc62b265ae0c5105e3e693cf4037a819fec5d67f8f7dd11e0ea70effc8fc"},
	"sylhet/majority/tie0":   {"ba1f319331da2cb34176a02039e87527f78d0b55d970c69615886e096c690424", "721c221b5a71665d6a62c077734a3a7a1ccf3759386fff77cef275bcf8a154e9", "8d8bda50600739fe115e509fb0eb9584f8067cdf71ab00a19e384e31476cf2c7"},
	"sylhet/bindbundle/tie1": {"d09267688132b0e247133edf56569ea8e0f9083f84140350a3ee19d5a96c273b", "be92b299ffb17e5a3a7f99364148a13d81afb9489efabe639a4efdf24040da1b", "89f79b32ae8b27e2ebda911ff5e7eb04af300caf50c504e016a03194aa9e0869"},
	"sylhet/bindbundle/tie0": {"8605c1ef238ee7ea38fcacb52f964483e5d52c752153eb16b8947b5d07e634df", "95f697c6b61a69c44f5b503b8be2b5f1aadd0057cb481254592b7f28ab39bc2a", "536878155994de51dde987f42425273807cdbd04c95be04782754c248834401f"},
}

func TestEncodeDigestsD10k(t *testing.T) {
	datasets := []*dataset.Dataset{synth.PimaM(1), synth.Sylhet(synth.DefaultSylhetConfig(1))}
	names := []string{"pima-m", "sylhet"}
	modes := map[encode.Mode]string{encode.Majority: "majority", encode.BindBundle: "bindbundle"}
	ties := map[hv.TieBreak]string{hv.TieToOne: "tie1", hv.TieToZero: "tie0"}
	for i, d := range datasets {
		for _, mode := range []encode.Mode{encode.Majority, encode.BindBundle} {
			for _, tie := range []hv.TieBreak{hv.TieToOne, hv.TieToZero} {
				name := names[i] + "/" + modes[mode] + "/" + ties[tie]
				got := deploymentDigests(t, d, Options{Dim: 10000, Seed: 42, Mode: mode, Tie: tie})
				want, ok := encodeDigests[name]
				if !ok || got != want {
					t.Errorf("%q: {%q, %q, %q},", name, got[0], got[1], got[2])
				}
			}
		}
	}
}

// deploymentDigests builds a deployment on d and returns the digests of
// its artifact bytes, its encoded training records and its scores.
func deploymentDigests(t *testing.T, d *dataset.Dataset, opts Options) [3]string {
	t.Helper()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	var out [3]string

	h := sha256.New()
	if _, err := dep.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	out[0] = sum(h)

	h = sha256.New()
	for _, v := range dep.Extractor.Transform(d.X) {
		if err := binary.Write(h, binary.LittleEndian, v.Words()); err != nil {
			t.Fatal(err)
		}
	}
	out[1] = sum(h)

	h = sha256.New()
	var buf [8]byte
	for _, s := range dep.ScoreBatch(d.X) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
		h.Write(buf[:])
	}
	out[2] = sum(h)
	return out
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"qframan/internal/raman"
)

// cosineFloor is the correctness gate: a spectrum whose cosine against the
// workload's reference falls below it counts as failed. Seeded jitter
// keeps every seed's spectra well above it.
const cosineFloor = 0.99

// refDir holds one reference spectrum file per workload, generated from
// the code at defaultSeed with -update-ref.
var refDir = filepath.Join("perfbench", "ref")

// reference is a workload's stored spectra, one per frame.
type reference struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	SHA256   string      `json:"sha256"`
	Frames   [][]float64 `json:"frames"`
}

func loadRef(name string) (*reference, error) {
	b, err := os.ReadFile(filepath.Join(refDir, name+".json"))
	if err != nil {
		return nil, fmt.Errorf("reference spectrum: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference spectrum %s: %w", name, err)
	}
	return &ref, nil
}

func writeRef(name string, seed int64, specs []*raman.Spectrum) error {
	ref := reference{Workload: name, Seed: seed, SHA256: spectraSHA(specs)}
	for _, s := range specs {
		ref.Frames = append(ref.Frames, s.Intensity)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(refDir, name+".json"), append(b, '\n'), 0o644)
}

// spectraSHA hashes the intensity bits of every frame, in order.
func spectraSHA(specs []*raman.Spectrum) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range specs {
		for _, v := range s.Intensity {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cosines returns each frame's cosine against the reference frame of the
// same index; a frame the reference lacks, or sampled on another axis,
// scores 0.
func (ref *reference) cosines(specs []*raman.Spectrum) []float64 {
	out := make([]float64, len(specs))
	for i, s := range specs {
		if i < len(ref.Frames) && len(ref.Frames[i]) == len(s.Intensity) {
			out[i] = raman.CosineSimilarity(s, &raman.Spectrum{Intensity: ref.Frames[i]})
		}
	}
	return out
}

// sameBits reports whether two passes produced bit-identical spectra.
func sameBits(a, b []*raman.Spectrum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Intensity) != len(b[i].Intensity) {
			return false
		}
		for j, v := range a[i].Intensity {
			if math.Float64bits(v) != math.Float64bits(b[i].Intensity[j]) {
				return false
			}
		}
	}
	return true
}

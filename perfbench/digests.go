package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fault"
)

//go:embed digests.json
var digestJSON []byte

// digests are the recorded simulated results of every input a run can
// use: the kernels, the demonstrators, every torture program of the
// pool and every campaign plan variant. A seed only selects among them,
// so every run on every seed is checked against a recording. A change
// that only makes the tool chain faster leaves every one of them
// identical; any difference fails the run.
type digests struct {
	// Firmware maps "program/profile" to the instructions retired and
	// cycles of one run.
	Firmware map[string][2]uint64 `json:"firmware"`
	// Campaign maps "target/variant" to the SHA-256 of the per-mutant
	// outcome vector of that plan variant.
	Campaign map[string]string `json:"campaign"`
}

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// recordDigests prints, as digests.json content, the simulated results
// of every input: the first run of every firmware program, torture pool
// included, and every campaign plan variant classified with private
// translation caches.
func recordDigests() error {
	progs := fixedPrograms()
	for i := 0; i < torturePool; i++ {
		progs = append(progs, tortureProgram(i))
	}
	fw, err := setupFirmware(progs, digests{}, defaultEngine, &report{}, nil)
	if err != nil {
		return err
	}
	d := digests{Firmware: map[string][2]uint64{}, Campaign: map[string]string{}}
	for _, r := range fw.runs {
		d.Firmware[r.prog.name+"/"+r.profile] = [2]uint64{r.want.insts, r.want.cycles}
	}
	for _, spec := range campaignSpecs {
		t, _, err := prepareTarget(spec, nil)
		if err != nil {
			return err
		}
		for v, plan := range t.plans {
			ref, err := fault.CampaignOpt(t.tg, plan, fault.Options{Workers: 1, NoSharedPool: true})
			if err != nil {
				return fmt.Errorf("%s: %w", t.key(v), err)
			}
			if ref.ByOutcome[fault.Errored] != 0 {
				return fmt.Errorf("%s: %d errored mutants", t.key(v), ref.ByOutcome[fault.Errored])
			}
			d.Campaign[t.key(v)] = outcomeDigest(ref.Details)
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// outcomeDigest is the hex SHA-256 of an outcome vector, one byte per
// mutant in plan order.
func outcomeDigest(outs []fault.Outcome) string {
	b := make([]byte, len(outs))
	for i, o := range outs {
		b[i] = byte(o)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

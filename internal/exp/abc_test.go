package exp

import "testing"

// abcAcceptSpec is the abc/pipe-b256 workload shape at n=7.
var abcAcceptSpec = ABCConfig{Slots: 4, BatchBytes: 256, TxBytes: 64, TxPerParty: 16}

// TestABCPipelineAtLeastTwiceSerial keeps the engine half of the original
// engine-vs-slot-serial gate (the serial ledger is retired; README records
// its 2.3× result): the BKR engine's logs agree, and each slot commits at
// least n−f of the n batches.
func TestABCPipelineAtLeastTwiceSerial(t *testing.T) {
	spec := RunSpec{N: 7, F: -1, Seed: 5, Genesis: []byte("abc-accept")}
	pipe, err := RunABC(spec, abcAcceptSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !pipe.Agreed {
		t.Fatal("engine logs disagree")
	}
	if nf := float64(7-2) / 7; pipe.Occupancy < nf {
		t.Fatalf("pipe occupancy %.2f below (n−f)/n = %.2f", pipe.Occupancy, nf)
	}
}

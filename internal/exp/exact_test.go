package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// quickSuiteDigests pins every experiment's tables at full precision: the
// tablesDigest of each experiment at quick scale and seed 1. The CSV
// goldens under results/ round most cells to three or four digits; these
// digests see a change in the last bit of any cell. After a deliberate
// change to experiment output, replace this map with the one
// TestQuickSuiteExactPinned prints, in the same commit as the regenerated
// goldens.
var quickSuiteDigests = map[string]string{
	"E1":  "f6e79efd21dffa3a30769aa33c70a1b37cb9cc668b6a2dc0ebf409ee91183779",
	"E2":  "f062712845a3090cb1ee0aa31deb3a9e44de0903ea372d45c8b9df8e3868d396",
	"E3":  "58eefe43b319e9b8dd78e64764efba51fb5f8f5daabd654d5232d4810f4d97f6",
	"E4":  "ab5b4da422af8d1a51feaf8bfd0120592924c276c1bfd69f292d6daaedc513ed",
	"E5":  "c99a87b1d9ae0f35802361ebe14b4224019506d8a858539b24d5e8ecf04908f6",
	"E6":  "542435b2d875002b527cc67038228cd456e60e381561b38dcfa9043ad543c3b6",
	"E7":  "ec3ccbd02e1d3644ae57fc1f43011004d89ecb990b9527e1c618a26b980d3481",
	"E8":  "456ccb8ee26ecd644e98f221897b64c9efac6e6e5e6ff9888e5c2d094568541d",
	"E9":  "5069852996db6bf58285310f3e560ecbf3f62c5a1d6cbb1df4b9d02153afc767",
	"E10": "98590645983d0c89f9d2928176bf158e06ae4e2d34c7010ca1921288288872a3",
	"E11": "d03c5dc8258f39f08669ad142053c084eff30b29e8c42735871646dd7f23b25e",
	"E12": "e507d5adcd02f02d44bbf03584e43670b4b91c0a0fa25a2f1e3534d949f6c3eb",
	"E13": "9aa12002ad7fa254beb203a014f63803d19ac9d39bf51c5387d27dd134b907c4",
	"E14": "eb5f5f78f508df8b6f591a24c99cc97e1c74c7701a626fdbe25afb05ea5aef24",
	"E15": "f65d2a93719c9e61873d5de2bfbd75894bc946fd261e667b0c776e19b1126bba",
	"E16": "822a0bc334eec060f06df54d4f81a9faf3c587a96ea57bbac1740d808c5cf08d",
	"E17": "d2efa67892262196d40f28bd166a2adbc4fbc49c0ff180d3d0dcfc64853e681c",
	"E18": "176d1d2d3a94b8577f6de1652de103c072b3fdeb89a4466444cb8e63fe9854b0",
	"E19": "058569725da2f41aafee642b1577820bf9cd2b2328891d2bb120024789a71edd",
	"E20": "319bc4a15a51a58b0a66ac841533bdf7a662467f5f94003247c726cc008c685c",
	"E21": "1b6659981d20514538cbb3bb8eab05fc923a04e1c5abd27e27d40336322674d0",
	"E22": "d00b329f8ad23d6080fcb721a29c2c47918d0558a7d5ed2288a9e3aba9bbf095",
}

func TestQuickSuiteExactPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse x*y+z into one FMA instruction on arm64,
		// ppc64 and s390x, which rounds once instead of twice.
		t.Skip("the digests pin amd64 arithmetic; other architectures may fuse multiply-adds")
	}
	got := sharedSuiteRun(t).digests
	stale := false
	for _, e := range Registry() {
		if want := quickSuiteDigests[e.ID]; got[e.ID] != want {
			t.Errorf("%s: table values changed at full precision (digest %s, pinned %q)", e.ID, got[e.ID], want)
			stale = true
		}
	}
	if len(quickSuiteDigests) != len(got) {
		t.Errorf("%d experiments pinned, %d ran", len(quickSuiteDigests), len(got))
		stale = true
	}
	if stale {
		var b strings.Builder
		b.WriteString("if the change is deliberate, replace quickSuiteDigests with:\n\nvar quickSuiteDigests = map[string]string{\n")
		for _, e := range Registry() {
			fmt.Fprintf(&b, "\t%-6s %q,\n", strconv.Quote(e.ID)+":", got[e.ID]) // gofmt's alignment
		}
		b.WriteString("}\n")
		t.Log(b.String())
	}
}

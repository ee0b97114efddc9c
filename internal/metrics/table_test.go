package metrics

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"
)

// TestKindFormat pins every kind's rendering, edge cases included, as the
// committed result tables show them.
func TestKindFormat(t *testing.T) {
	tests := []struct {
		kind Kind
		v    float64
		want string
	}{
		{Auto, 3.25, "3.25"},
		{Auto, 0.000125, "0.000125"},
		{Auto, 12345.678, "1.235e+04"},
		{Auto, math.NaN(), "NaN"},
		{Exact, 0.1, "0.1"},
		{Exact, 1.0 / 3, "0.3333333333333333"},
		{Exact, math.NaN(), "NaN"},
		{Seconds, 12.345, "12.3s"},
		{Seconds, 137000, "1.37e+05s"},
		{Seconds, 2150, "2.15e+03s"},
		{USD, 0, "$0"},
		{USD, 5e-4, "$5.00e-04"},
		{USD, 1.5, "$1.5000"},
		{USD, -1.5, "$-1.50e+00"},
		{Percent, 0.123, "12.3%"},
		{Percent, 0, "0.0%"},
		{MilliJ, 500, "500mJ"},
		{MilliJ, 2500, "2.5J"},
		// Rounds up to a thousand but stays in millijoules: the unit is
		// chosen before rounding.
		{MilliJ, 999.6, "1e+03mJ"},
		{Fixed3, 1.23456, "1.235"},
		{Whole, 1234.6, "1235"},
		{Ratio, 2.46, "2.5x"},
		{Ratio2, 1.5, "1.50x"},
	}
	for _, tt := range tests {
		if got := tt.kind.Format(tt.v); got != tt.want {
			t.Errorf("kind %d formats %v as %q, want %q", tt.kind, tt.v, got, tt.want)
		}
	}
}

func TestTableCellsKeepValues(t *testing.T) {
	tbl := NewTable("t", "name", "n", "s", "share").Kinds(Auto, Auto, Seconds, Percent)
	tbl.Add("a", 7, 12.345, 0.123)
	tbl.Add("b", uint64(9), Missing, Missing)
	tbl.Add(true, int64(-2), 137000.0)
	if got, want := tbl.CSV(), "name,n,s,share\na,7,12.3s,12.3%\nb,9,-,-\ntrue,-2,1.37e+05s,\n"; got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	if v := tbl.Float(0, "s"); v != 12.345 {
		t.Errorf("Float(0, s) = %v, want the stored 12.345", v)
	}
	if got := tbl.Column("n"); got[0] != 7 || got[1] != 9 || got[2] != -2 {
		t.Errorf("Column(n) = %v", got)
	}
	if v := tbl.Float(1, "share"); !math.IsNaN(v) {
		t.Errorf("a Missing cell reads %v, want NaN", v)
	}
	if s := tbl.Text(2, "name"); s != "true" {
		t.Errorf("Text(2, name) = %q", s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Float of a text cell did not panic")
			}
		}()
		tbl.Float(0, "name")
	}()
}

// TestTableWriteValuesSeesFullPrecision checks that the value stream
// tells apart two tables that render the same text.
func TestTableWriteValuesSeesFullPrecision(t *testing.T) {
	digest := func(v any) [sha256.Size]byte {
		tbl := NewTable("t", "s").Kinds(Seconds)
		tbl.Add(v)
		var b bytes.Buffer
		if err := tbl.WriteValues(&b); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b.Bytes())
	}
	a, b := 12.345, 12.345*(1+1e-6)
	if Seconds.Format(a) != Seconds.Format(b) {
		t.Fatal("test values must render alike")
	}
	if digest(a) == digest(b) {
		t.Error("values that differ in the sixth digit hash alike")
	}
	if digest(a) != digest(a) {
		t.Error("one value hashes two ways")
	}
	if digest("1") == digest(1) {
		t.Error("a text cell and an integer cell hash alike")
	}
}

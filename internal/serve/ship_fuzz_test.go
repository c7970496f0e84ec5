package serve

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"tcss"
	"tcss/internal/fault"
	"tcss/internal/geo"
)

// fuzzLocalPOIs is the POI count of the receiver geometry the fuzz target
// decodes against; the coordinate-free seed ships a model of this width.
const fuzzLocalPOIs = 7

// shipmentPayloads returns the framed-payload bytes of real encodes: small
// synthetic snapshots with and without friend sets, one without coordinates
// (decoded against the receiver's geometry), and a wide one whose J²
// pairwise distances would take 200 MB.
func shipmentPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, shape := range []struct {
		users, pois, times, rank int
		coords, friends          bool
	}{
		{4, fuzzLocalPOIs, 3, 2, true, true},
		{3, fuzzLocalPOIs, 2, 1, false, true},
		{2, 5, 1, 1, true, false},
		{1, 5000, 1, 1, true, false},
	} {
		m, side, err := tcss.SynthServing(shape.users, shape.pois, shape.times, shape.rank, 3)
		if err != nil {
			tb.Fatal(err)
		}
		if shape.friends {
			for i := range side.FriendPOIs {
				side.OwnPOIs[i] = []int{i % shape.pois}
				side.FriendPOIs[i] = []int{(i + 1) % shape.pois, (i + 2) % shape.pois}
			}
		}
		if !shape.coords {
			side.Dist = nil
		}
		wire, err := EncodeShipment(&Snapshot{Gen: 9, Model: m, Side: side, Created: time.Now()})
		if err != nil {
			tb.Fatal(err)
		}
		_, payload, err := fault.ReadFramed(wire)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
	}
	return out
}

// FuzzDecodeShipment frames each input with a valid CRC32-C header, so
// mutations reach the model and side-info decoders instead of stopping at
// the checksum, and decodes it. Decoding must never panic, must allocate
// only in proportion to the input (the sender chooses J, so nothing may be
// sized J²), and a decoded side must match the decoded model's shape.
func FuzzDecodeShipment(f *testing.F) {
	for _, p := range shipmentPayloads(f) {
		f.Add(p)
	}
	local := geo.NewDistanceMatrix(make([]geo.Point, fuzzLocalPOIs))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := fault.WriteFramed(&framed, ShipVersion, payload); err != nil {
			t.Skip(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		model, side, _, err := DecodeShipment(framed.Bytes(), local)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(framed.Len())+16<<20; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", framed.Len(), grew, limit)
		}
		if err != nil {
			return
		}
		if len(side.OwnPOIs) != model.I || len(side.FriendPOIs) != model.I ||
			len(side.EntropyW) != model.J || side.Dist == nil || side.Dist.N != model.J {
			t.Fatalf("decoded side (%d/%d users, %d weights, geometry %v) does not match model %dx%d",
				len(side.OwnPOIs), len(side.FriendPOIs), len(side.EntropyW), side.Dist, model.I, model.J)
		}
	})
}

func TestDecodeShipmentCoordinates(t *testing.T) {
	payloads := shipmentPayloads(t)
	frame := func(p []byte) []byte {
		var b bytes.Buffer
		if err := fault.WriteFramed(&b, ShipVersion, p); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	local := geo.NewDistanceMatrix(make([]geo.Point, fuzzLocalPOIs))
	// With coordinates: the receiver's geometry is ignored, even a nil one.
	if _, side, _, err := DecodeShipment(frame(payloads[0]), nil); err != nil || side.Dist == nil || side.Dist.N != fuzzLocalPOIs {
		t.Fatalf("shipment with coordinates: side %+v, err %v", side, err)
	}
	// Without coordinates: the receiver's geometry is used when it fits.
	if _, side, _, err := DecodeShipment(frame(payloads[1]), local); err != nil || side.Dist != local {
		t.Fatalf("coordinate-free shipment did not use the local geometry: err %v", err)
	}
	if _, _, _, err := DecodeShipment(frame(payloads[1]), nil); err == nil {
		t.Fatal("coordinate-free shipment decoded without a local geometry")
	}
	if _, _, _, err := DecodeShipment(frame(payloads[1]), geo.NewDistanceMatrix(make([]geo.Point, 3))); err == nil {
		t.Fatal("coordinate-free shipment decoded against a geometry of the wrong width")
	}
	// Coordinates of the wrong length are malformed, not silently dropped.
	bad := bytes.Replace(payloads[0], []byte(`"lats":[`), []byte(`"lats":[1,`), 1)
	if bytes.Equal(bad, payloads[0]) {
		t.Fatal("seed payload has no lats field")
	}
	if _, _, _, err := DecodeShipment(frame(bad), local); err == nil {
		t.Fatal("shipment with one latitude too many decoded cleanly")
	}
}

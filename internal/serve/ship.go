package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tcss/internal/core"
	"tcss/internal/fault"
	"tcss/internal/geo"
)

// ShipVersion is the snapshot-shipping wire format version, carried in the
// outer CRC32-C frame header so both ends can gate on it before trusting the
// payload layout.
const ShipVersion = 1

// ShippedSide is the side information that travels with a shipped
// snapshot: the per-user and per-POI sets and weights, and the POI
// coordinates the receiver rebuilds the geometry from (O(J), and d_max is
// recomputed on demand). The coordinates are optional on the wire: a
// shipment without them decodes against the receiver's own geometry.
type ShippedSide struct {
	EntropyW   []float64 `json:"entropy_w"`
	OwnPOIs    [][]int   `json:"own_pois"`
	FriendPOIs [][]int   `json:"friend_pois"`
	// Lats/Lons are the POI coordinates (len == model.J), or both absent.
	Lats []float64 `json:"lats,omitempty"`
	Lons []float64 `json:"lons,omitempty"`
}

// EncodeShipment serializes a snapshot for replication: one outer CRC32-C
// frame (fault.WriteFramed, version ShipVersion) whose payload is the model
// in the v5 binary slab format (itself a checksummed frame, so the replica's
// standard loader verifies it a second time) followed by the side
// information, POI coordinates included, as JSON, with an 8-byte
// little-endian length prefix splitting the two. A single flipped or torn
// byte anywhere fails the outer CRC on the receiving end with
// fault.ErrChecksum.
func EncodeShipment(snap *Snapshot) ([]byte, error) {
	var model bytes.Buffer
	if err := snap.Model.SaveBinary(&model, snap.Gen); err != nil {
		return nil, fmt.Errorf("serve: encoding shipped model: %w", err)
	}
	shipped := ShippedSide{
		EntropyW:   snap.Side.EntropyW,
		OwnPOIs:    snap.Side.OwnPOIs,
		FriendPOIs: snap.Side.FriendPOIs,
	}
	if dist := snap.Side.Dist; dist != nil {
		if dist.N < snap.Model.J {
			return nil, fmt.Errorf("serve: geometry covers %d POIs, model has %d", dist.N, snap.Model.J)
		}
		shipped.Lats = make([]float64, snap.Model.J)
		shipped.Lons = make([]float64, snap.Model.J)
		for j := range shipped.Lats {
			p := dist.Point(j)
			shipped.Lats[j], shipped.Lons[j] = p.Lat, p.Lon
		}
	}
	side, err := json.Marshal(shipped)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shipped side info: %w", err)
	}
	wire := make([]byte, 8, 8+model.Len()+len(side))
	binary.LittleEndian.PutUint64(wire, uint64(model.Len()))
	wire = append(wire, model.Bytes()...)
	wire = append(wire, side...)
	var out bytes.Buffer
	out.Grow(len(wire) + 256)
	if err := fault.WriteFramed(&out, ShipVersion, wire); err != nil {
		return nil, fmt.Errorf("serve: framing shipment: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeShipment verifies and decodes a shipment produced by EncodeShipment.
// The side information's geometry is built from the shipped coordinates in
// O(J) time and memory; dist, the receiver's own geometry, is used only for
// a shipment that carries no coordinates, and must then cover exactly the
// model's POIs. Corruption fails with an error wrapping fault.ErrChecksum;
// callers keep serving their last good snapshot in that case.
func DecodeShipment(data []byte, dist *geo.DistanceMatrix) (*core.Model, *core.SideInfo, uint64, error) {
	version, wire, err := fault.ReadFramed(data)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: shipment frame: %w", err)
	}
	if version != ShipVersion {
		return nil, nil, 0, fmt.Errorf("serve: shipment is wire version %d, this build reads %d", version, ShipVersion)
	}
	if len(wire) < 8 {
		return nil, nil, 0, fmt.Errorf("serve: shipment payload truncated (%d bytes)", len(wire))
	}
	modelLen := binary.LittleEndian.Uint64(wire)
	if modelLen > uint64(len(wire)-8) {
		return nil, nil, 0, fmt.Errorf("serve: shipment declares %d model bytes, payload has %d", modelLen, len(wire)-8)
	}
	model, gen, err := core.DecodeBinary(wire[8 : 8+modelLen])
	if err != nil {
		return nil, nil, 0, err
	}
	var shipped ShippedSide
	if err := json.Unmarshal(wire[8+modelLen:], &shipped); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: decoding shipped side info: %w", err)
	}
	if len(shipped.OwnPOIs) != model.I || len(shipped.FriendPOIs) != model.I || len(shipped.EntropyW) != model.J {
		return nil, nil, 0, fmt.Errorf("serve: shipped side info shape (%d users, %d POIs) does not match model %dx%d",
			len(shipped.OwnPOIs), len(shipped.EntropyW), model.I, model.J)
	}
	switch {
	case len(shipped.Lats) == model.J && len(shipped.Lons) == model.J:
		pts := make([]geo.Point, model.J)
		for j := range pts {
			pts[j] = geo.Point{Lat: shipped.Lats[j], Lon: shipped.Lons[j]}
		}
		dist = geo.NewDistanceMatrix(pts)
	case len(shipped.Lats) != 0 || len(shipped.Lons) != 0:
		return nil, nil, 0, fmt.Errorf("serve: shipment carries %d latitudes and %d longitudes for %d POIs",
			len(shipped.Lats), len(shipped.Lons), model.J)
	case dist == nil || dist.N != model.J:
		n := 0
		if dist != nil {
			n = dist.N
		}
		return nil, nil, 0, fmt.Errorf("serve: shipment model has %d POIs but local geometry covers %d and no coordinates were shipped", model.J, n)
	}
	side := &core.SideInfo{
		Dist:       dist,
		EntropyW:   shipped.EntropyW,
		OwnPOIs:    shipped.OwnPOIs,
		FriendPOIs: shipped.FriendPOIs,
	}
	return model, side, gen, nil
}

// RecordReplication feeds the replica-side replication counters after one
// sync attempt: nil for a successful fetch (whether or not it carried a new
// generation), a fault.ErrChecksum-wrapping error for a corrupt shipment, any
// other error for transport or decode failures. The shipping Replicator in
// internal/cluster calls this so /metrics on a replica tells the whole story.
func (s *Server) RecordReplication(err error) {
	if err == nil {
		s.met.replicationSyncs.Add(1)
		return
	}
	s.met.replicationFails.Add(1)
	if errors.Is(err, fault.ErrChecksum) {
		s.met.replicationCRC.Add(1)
	}
}

// serveSnapshotBin implements GET /v1/snapshot/bin: the snapshot-shipping
// export. With ?after=G the handler answers 204 No Content when the current
// generation is not past G — the cheap poll a replica issues every sync
// interval — and otherwise streams the full shipment. The X-Generation
// header always reports the generation being (or not being) shipped.
func (s *Server) serveSnapshotBin(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.load()
	w.Header().Set("X-Generation", strconv.FormatUint(snap.Gen, 10))
	if raw := r.URL.Query().Get("after"); raw != "" {
		after, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.badRequest(w, "parameter %q: %v", "after", err)
			return
		}
		if snap.Gen <= after {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	body, err := EncodeShipment(snap)
	if err != nil {
		s.met.internalErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.met.shipmentsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

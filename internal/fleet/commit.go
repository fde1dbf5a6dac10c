package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// commitContentType is the media type of a commit body: the
// CompleteRequest as one JSON line carrying snapshot_len and records_len,
// followed by exactly that many raw snapshot bytes and raw record-chunk
// bytes. It is the only format POST /v1/fleet/leases/{id}/complete takes.
const commitContentType = "application/vnd.mufuzz.commit"

// encodeCommit writes req as a commit body.
func encodeCommit(req CompleteRequest) ([]byte, error) {
	req.SnapshotLen, req.RecordsLen = len(req.Snapshot), len(req.Records)
	header, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("commit header: %w", err)
	}
	body := make([]byte, 0, len(header)+1+len(req.Snapshot)+len(req.Records))
	body = append(append(body, header...), '\n')
	body = append(body, req.Snapshot...)
	return append(body, req.Records...), nil
}

// decodeCommit reads a commit body that holds at most size bytes: the
// body's Content-Length when the sender declared one, else the body cap.
// The declared payload lengths are checked against size before anything is
// allocated for them, and each payload is read into a buffer of its own,
// so a record chunk the coordinator keeps pins nothing else of the body. A
// body without a JSON header line, with an unknown header key, or whose
// payloads end early or run on is refused.
func decodeCommit(r io.Reader, size int64) (CompleteRequest, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err == io.EOF || (err == nil && line[0] != '{') {
		return CompleteRequest{}, errors.New("commit body: no JSON header line")
	}
	if err != nil {
		return CompleteRequest{}, fmt.Errorf("commit body: %w", err)
	}
	var req CompleteRequest
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return CompleteRequest{}, fmt.Errorf("commit header: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return CompleteRequest{}, errors.New("commit header: data after the JSON object")
	}
	rest := size - int64(len(line))
	if req.SnapshotLen < 0 || req.RecordsLen < 0 ||
		int64(req.SnapshotLen) > rest || int64(req.RecordsLen) > rest-int64(req.SnapshotLen) {
		return CompleteRequest{}, fmt.Errorf("commit header: snapshot_len %d and records_len %d do not fit the %d bytes after the header",
			req.SnapshotLen, req.RecordsLen, rest)
	}
	if req.Snapshot, err = readPayload(br, req.SnapshotLen, "snapshot"); err != nil {
		return CompleteRequest{}, err
	}
	if req.Records, err = readPayload(br, req.RecordsLen, "record chunk"); err != nil {
		return CompleteRequest{}, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return CompleteRequest{}, errors.New("commit body: trailing bytes after the record chunk")
		}
		return CompleteRequest{}, fmt.Errorf("commit body: %w", err)
	}
	return req, nil
}

// readPayload reads exactly n bytes into a new buffer; nil when n is 0.
func readPayload(r io.Reader, n int, what string) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if got, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("commit body: %s ends after %d of %d bytes", what, got, n)
		}
		return nil, fmt.Errorf("commit body: %s: %w", what, err)
	}
	return buf, nil
}

package fleet

import (
	"mufuzz/internal/conformance"
	"mufuzz/internal/service"
)

// ReferenceTranscript records the uninterrupted single-node run of a
// campaign spec — the baseline a fleet-executed campaign's assembled
// transcript must be byte-identical to, no matter how many workers it
// migrated across. The spec is resolved exactly as the coordinator
// resolves it at submit (service.Resolve), so `conform -mode fleet-ref`,
// the fleet tests, and CI's kill-one-worker smoke all compare against the
// same bytes.
//
// Deprecated: defaultWorkers is ignored, like service.CampaignSpec.Workers;
// the parameter stays only because the benchmark harness in bench/ passes
// it.
func ReferenceTranscript(spec service.CampaignSpec, defaultIterations, defaultWorkers int) (*conformance.Run, error) {
	r, err := service.Resolve(spec, defaultIterations)
	if err != nil {
		return nil, err
	}
	return conformance.RecordTargetCampaign(r.Name, r.Target, r.Options), nil
}

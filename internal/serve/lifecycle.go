package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"hdfe/internal/core"
)

// ModelInfo identifies one loaded model. It is immutable once the model
// is adopted and safe to hand to JSON encoders and log lines.
type ModelInfo struct {
	// Version is the server-assigned monotonic model version, starting
	// at 1 for the boot model. It is the value of the model_version
	// metric label.
	Version uint64 `json:"version"`
	// Name is the human-facing model name (flag -name, admin "name"
	// field, or the backing path when neither is given).
	Name string `json:"name"`
	// Path is the artifact file the model was loaded from ("" for
	// in-process models, e.g. -demo).
	Path string `json:"path,omitempty"`
	// SHA256 is the hex digest of the artifact bytes ("" for in-process
	// models).
	SHA256 string `json:"sha256,omitempty"`
	// Dim and Features describe the fitted schema.
	Dim      int `json:"dim"`
	Features int `json:"features"`
	// LoadedAt is when the server adopted the model.
	LoadedAt time.Time `json:"loaded_at"`
}

// model is one adopted model and everything that must swap atomically
// with it: its identity, the deployment, the validator built from the
// fitted schema, and the drift trackers (input histograms, score
// window, delayed-label quality) that describe traffic as seen by this
// model version — so comparing a new model against stale drift state is
// impossible by construction. adopt builds all of it before the model is
// published with one atomic store; nothing in a model is written after
// that except the internally synchronized trackers. A replaced model
// keeps serving the requests that already loaded it and is freed by the
// garbage collector once they finish.
type model struct {
	info   ModelInfo
	dep    *core.Deployment
	val    *Validator
	drift  *driftState
	shadow shadowStats // canary comparison, used while the model is shadow
}

// adopt builds a model for dep under a fresh version and appends it to
// the adoption history. The returned model is complete but unpublished:
// promote it or store it in the shadow slot.
func (s *Server) adopt(dep *core.Deployment, name, path, sha string) *model {
	cb := dep.Extractor.Codebook()
	s.modelsMu.Lock()
	defer s.modelsMu.Unlock()
	s.nextVersion++
	info := ModelInfo{
		Version:  s.nextVersion,
		Name:     name,
		Path:     path,
		SHA256:   sha,
		Dim:      cb.Dim(),
		Features: cb.NumFeatures(),
		LoadedAt: time.Now(),
	}
	s.loaded = append(s.loaded, info)
	return &model{
		info:  info,
		dep:   dep,
		val:   NewValidator(cb, s.cfg.RejectMissing, s.cfg.RejectOutOfRange),
		drift: newDriftState(dep.Ref, info.Version, s.cfg.Logger),
	}
}

// checkSchema verifies that dep is hot-swappable with the active model:
// identical feature schemas, position by position. Clients send features
// positionally against the schema they were built for, so a swap must
// not change it.
func (s *Server) checkSchema(dep *core.Deployment) error {
	cur := s.active.Load().dep.Extractor.Codebook().Specs()
	next := dep.Extractor.Codebook().Specs()
	if len(next) != len(cur) {
		return fmt.Errorf("serve: schema mismatch: new model has %d features, active model %d", len(next), len(cur))
	}
	for i := range cur {
		if next[i] != cur[i] {
			return fmt.Errorf("serve: schema mismatch at feature %d: new model %s/%v, active model %s/%v",
				i, next[i].Name, next[i].Kind, cur[i].Name, cur[i].Kind)
		}
	}
	return nil
}

// AdoptAndPromote adopts an in-process deployment (no backing file) and
// promotes it to active after the schema check. Requests that already
// loaded the replaced model finish on it.
func (s *Server) AdoptAndPromote(dep *core.Deployment, name string) (ModelInfo, error) {
	if err := s.checkSchema(dep); err != nil {
		return ModelInfo{}, err
	}
	m := s.adopt(dep, name, "", "")
	s.promote(m)
	return m.info, nil
}

// LoadAndPromote loads a model artifact from path and promotes it to
// active. name defaults to path.
func (s *Server) LoadAndPromote(path, name string) (ModelInfo, error) {
	m, err := s.load(path, name)
	if err != nil {
		return ModelInfo{}, err
	}
	s.promote(m)
	return m.info, nil
}

// LoadShadow loads a model artifact from path and installs it as the
// shadow model, replacing any previous shadow. name defaults to path.
func (s *Server) LoadShadow(path, name string) (ModelInfo, error) {
	m, err := s.load(path, name)
	if err != nil {
		return ModelInfo{}, err
	}
	s.shadow.slot.Store(m)
	s.logger.Info("shadow model installed",
		"model", m.info.Name, "model_version", m.info.Version, "sha256", m.info.SHA256)
	return m.info, nil
}

// AdoptShadow installs an in-process deployment as the shadow model.
func (s *Server) AdoptShadow(dep *core.Deployment, name string) (ModelInfo, error) {
	if err := s.checkSchema(dep); err != nil {
		return ModelInfo{}, err
	}
	m := s.adopt(dep, name, "", "")
	s.shadow.slot.Store(m)
	return m.info, nil
}

// ReloadModel re-reads the active model's backing artifact and promotes
// the result — the SIGHUP handler. It fails for in-process models
// (-demo), which have no file to reload.
func (s *Server) ReloadModel() (ModelInfo, error) {
	info := s.active.Load().info
	if info.Path == "" {
		return ModelInfo{}, errors.New("serve: active model has no backing file to reload")
	}
	return s.LoadAndPromote(info.Path, info.Name)
}

// load reads and schema-checks an artifact, returning an adopted,
// unpublished model. A failed load — a missing, truncated or corrupt
// artifact — must leave the serving state untouched (the current model
// keeps serving; TestChaosLoadFailureKeepsServing pins this).
func (s *Server) load(path, name string) (*model, error) {
	dep, sha, err := core.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := s.checkSchema(dep); err != nil {
		return nil, err
	}
	if name == "" {
		name = path
	}
	return s.adopt(dep, name, path, sha), nil
}

// promote publishes m as active and counts, logs and audits the swap.
// New stores the boot model directly, so a promote always replaces one.
func (s *Server) promote(m *model) {
	old := s.active.Swap(m)
	s.swaps.Add(1)
	s.logger.Info("model promoted",
		"model", m.info.Name, "model_version", m.info.Version, "sha256", m.info.SHA256,
		"replaced_version", old.info.Version)
	s.auditSwap(m.info, old.info.Version)
}

// modelsResponse is the GET /v1/models body: the live publication state
// plus the full adoption history.
type modelsResponse struct {
	Active ModelInfo   `json:"active"`
	Shadow *ModelInfo  `json:"shadow,omitempty"`
	Swaps  uint64      `json:"swaps"`
	Loaded []ModelInfo `json:"loaded"`
}

// handleModels reports the model lifecycle: active and shadow
// identities, swap count, and every model adopted since boot.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{
		Active: s.active.Load().info,
		Swaps:  s.swaps.Load(),
	}
	if sh := s.shadow.slot.Load(); sh != nil {
		resp.Shadow = &sh.info
	}
	s.modelsMu.Lock()
	resp.Loaded = append([]ModelInfo(nil), s.loaded...)
	s.modelsMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// loadModelRequest is the POST /admin/models/load body.
type loadModelRequest struct {
	// Path is the model artifact to load (required).
	Path string `json:"path"`
	// Name overrides the reported model name (default: Path).
	Name string `json:"name,omitempty"`
	// Shadow installs the model as shadow instead of promoting it.
	Shadow bool `json:"shadow,omitempty"`
}

// loadModelResponse is the body of a successful POST /admin/models/load.
type loadModelResponse struct {
	Role  string    `json:"role"` // "active" | "shadow"
	Model ModelInfo `json:"model"`
}

// handleLoadModel loads a model artifact: by default
// it promotes (zero-downtime swap), with "shadow": true it installs the
// canary. A load or schema failure leaves the serving state untouched.
func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req loadModelRequest
	if !s.decode(w, r, nil, &req) {
		return
	}
	if req.Path == "" {
		s.writeError(w, nil, http.StatusBadRequest, "missing path", nil, 0)
		return
	}
	var (
		role = "active"
		info ModelInfo
		err  error
	)
	if req.Shadow {
		role = "shadow"
		info, err = s.LoadShadow(req.Path, req.Name)
	} else {
		info, err = s.LoadAndPromote(req.Path, req.Name)
	}
	if err != nil {
		s.writeError(w, nil, http.StatusUnprocessableEntity, err.Error(), nil, 0)
		return
	}
	writeJSON(w, http.StatusOK, loadModelResponse{Role: role, Model: info})
}
